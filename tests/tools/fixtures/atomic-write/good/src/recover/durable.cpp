#include <filesystem>
#include <string>
namespace tw::recover {
void commit(const std::string& tmp, const std::string& path) {
  std::filesystem::rename(tmp, path);
}
}  // namespace tw::recover
