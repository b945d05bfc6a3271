#include "common/atomic_file.h"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <unistd.h>

namespace ppssd {

std::string write_file_atomic(const std::string& path,
                              std::initializer_list<std::string_view> parts) {
  namespace fs = std::filesystem;
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return "cannot write " + tmp;
    for (const std::string_view part : parts) {
      out.write(part.data(), static_cast<std::streamsize>(part.size()));
    }
    if (!out.good()) {
      out.close();
      fs::remove(tmp, ec);
      return "failed writing " + tmp;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return "failed publishing " + path;
  }
  return "";
}

}  // namespace ppssd
