#include <filesystem>
#include <fstream>
#include <string>
namespace tw::serve {
void save(const std::string& path, const std::string& bytes) {
  std::ofstream(path + ".tmp") << bytes;
  std::filesystem::rename(path + ".tmp", path);
}
}  // namespace tw::serve
