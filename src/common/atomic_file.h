// Atomic file publication for the on-disk caches (experiment results,
// warm-start checkpoints).
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>

namespace ppssd {

/// Write the concatenated `parts` to `path` atomically: they go to a
/// uniquely named temp file in the same directory, which is renamed
/// over `path` only once every byte is written. Concurrent writers
/// (PPSSD_JOBS) and readers never observe a half-written file. Returns
/// "" on success, else what failed (the temp file is removed).
[[nodiscard]] std::string write_file_atomic(
    const std::string& path, std::initializer_list<std::string_view> parts);

}  // namespace ppssd
