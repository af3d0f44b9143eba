#include <thread>
namespace tw::pool {
void run_replicas(void (*fn)()) {
  std::thread worker(fn);
  worker.join();
}
}  // namespace tw::pool
