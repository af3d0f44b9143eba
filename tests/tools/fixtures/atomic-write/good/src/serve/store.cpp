#include <string>
namespace tw::serve {
struct Index {
  void rename_entry(int from, int to);
};
// Comments and strings may say rename( freely.
void relabel(Index& index) {
  index.rename_entry(1, 2);
  const std::string note = "temp + rename(tmp, path)";
  (void)note;
}
}  // namespace tw::serve
