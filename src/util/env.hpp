// Environment-variable helpers used by benches and the CLI to override
// sweep/serve parameters (RAMP_TRACE_LEN, RAMP_SEED, RAMP_JOBS,
// RAMP_STAGE_CACHE, RAMP_OUT_DIR) without recompiling.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace ramp {

/// Returns the raw value of `name` if set and non-empty.
std::optional<std::string> env_string(const std::string& name);

/// Strict base-10 unsigned parse of `text`: the whole string must be digits
/// (no sign, whitespace, or trailing characters) and fit in 64 bits. Throws
/// InvalidArgument naming `what` otherwise.
std::uint64_t parse_u64(const std::string& text, const std::string& what);

/// Parses `name` as an unsigned integer; returns `fallback` when unset.
/// Throws InvalidArgument when set but malformed (non-numeric, signed,
/// or overflowing) — a misspelled override must never be silently ignored.
std::uint64_t env_u64(const std::string& name, std::uint64_t fallback);

/// Worker-count override: like env_u64 but additionally rejects 0.
std::size_t env_jobs(const std::string& name, std::size_t fallback);

/// Strict boolean switch: returns `fallback` when `name` is unset; accepts
/// (case-insensitive) "on"/"1"/"true"/"yes" and "off"/"0"/"false"/"no";
/// any other value throws InvalidArgument — a misspelled RAMP_METRICS must
/// fail loudly, not silently leave metrics in the default state.
bool env_on_off(const std::string& name, bool fallback);

/// Three-state switch-or-value (RAMP_TIMELINE): nullopt when unset or an
/// off-spelling ("off"/"0"/"false"/"no"), "" when an on-spelling
/// ("on"/"1"/"true"/"yes" — enabled with the default value), and the raw
/// string otherwise (enabled, the value is a path/argument).
std::optional<std::string> env_on_off_or_value(const std::string& name);

/// Parses `name` as a finite double (strict: the whole string must parse).
/// Returns nullopt when unset; throws InvalidArgument when malformed.
std::optional<double> env_double(const std::string& name);

/// Directory generated artifacts (bench CSVs, sweep/serve caches) land in:
/// $RAMP_OUT_DIR when set, "out" otherwise. Callers create it on first write.
std::string output_dir();

}  // namespace ramp
