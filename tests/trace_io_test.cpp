// Tests for binary trace serialization.
#include "trace/trace_io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "sim/ooo_core.hpp"
#include "trace/synthetic_generator.hpp"
#include "util/error.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::trace {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  // One file per test and process: ctest runs each case as its own process,
  // in parallel, so a shared name would let one case truncate another's.
  std::string path_ =
      ::testing::TempDir() + "ramp_trace_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid()) + ".bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TraceIoTest, RoundtripPreservesEveryField) {
  const auto& w = workloads::workload("gcc");
  const std::uint64_t n = 5000;
  {
    SyntheticTrace gen(w.profile, n, 123);
    TraceWriter writer(path_);
    EXPECT_EQ(writer.append_all(gen), n);
    EXPECT_EQ(writer.written(), n);
  }
  SyntheticTrace gen(w.profile, n, 123);  // regenerate the same stream
  TraceFileReader reader(path_);
  EXPECT_EQ(reader.total_instructions(), n);
  Instruction expect, got;
  std::uint64_t count = 0;
  while (gen.next(expect)) {
    ASSERT_TRUE(reader.next(got));
    EXPECT_EQ(static_cast<int>(got.op), static_cast<int>(expect.op));
    EXPECT_EQ(got.dst, expect.dst);
    EXPECT_EQ(got.src1, expect.src1);
    EXPECT_EQ(got.src2, expect.src2);
    EXPECT_EQ(got.pc, expect.pc);
    EXPECT_EQ(got.mem_addr, expect.mem_addr);
    EXPECT_EQ(got.branch_taken, expect.branch_taken);
    EXPECT_EQ(got.branch_target, expect.branch_target);
    ++count;
  }
  EXPECT_EQ(count, n);
  EXPECT_FALSE(reader.next(got));  // exhausted
}

TEST_F(TraceIoTest, EmptyTraceRoundtrips) {
  { TraceWriter writer(path_); }
  TraceFileReader reader(path_);
  EXPECT_EQ(reader.total_instructions(), 0u);
  Instruction ins;
  EXPECT_FALSE(reader.next(ins));
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(TraceFileReader("/nonexistent/dir/trace.bin"), InvalidArgument);
}

TEST_F(TraceIoTest, BadMagicRejected) {
  {
    std::ofstream f(path_, std::ios::binary);
    f << "NOTATRACE-------------------";
  }
  EXPECT_THROW(TraceFileReader{path_}, InvalidArgument);
}

TEST_F(TraceIoTest, TruncatedFileDetected) {
  {
    const auto& w = workloads::workload("gzip");
    SyntheticTrace gen(w.profile, 100, 5);
    TraceWriter writer(path_);
    writer.append_all(gen);
  }
  // Chop off the tail: header says 100 records but fewer are present.
  {
    std::ifstream in(path_, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() - 40));
  }
  TraceFileReader reader(path_);
  Instruction ins;
  EXPECT_THROW(
      {
        while (reader.next(ins)) {
        }
      },
      InvalidArgument);
}

TEST_F(TraceIoTest, ReplayedTraceDrivesSimulatorIdentically) {
  // A captured trace must produce bit-identical timing to the live
  // generator — the property that makes file-driven studies valid.
  const auto& w = workloads::workload("crafty");
  const std::uint64_t n = 20000;
  {
    SyntheticTrace gen(w.profile, n, 9);
    TraceWriter writer(path_);
    writer.append_all(gen);
  }
  sim::OooCore live_core(sim::base_core_config());
  SyntheticTrace live(w.profile, n, 9);
  const auto live_result = live_core.run(live, 1100);

  sim::OooCore file_core(sim::base_core_config());
  TraceFileReader replay(path_);
  const auto file_result = file_core.run(replay, 1100);

  EXPECT_EQ(live_result.totals.cycles, file_result.totals.cycles);
  EXPECT_EQ(live_result.totals.instructions, file_result.totals.instructions);
  EXPECT_EQ(live_result.totals.branch_mispredicts,
            file_result.totals.branch_mispredicts);
  EXPECT_EQ(live_result.totals.l1d_misses, file_result.totals.l1d_misses);
}

}  // namespace
}  // namespace ramp::trace
