#include "recover/fault.hpp"

namespace tw::recover {

const char* to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kStage1Step: return "stage1.step";
    case FaultSite::kStage1Accept: return "stage1.accept";
    case FaultSite::kStage2Step: return "stage2.step";
    case FaultSite::kStage2Accept: return "stage2.accept";
    case FaultSite::kStage2Pass: return "stage2.pass";
    case FaultSite::kRouteNet: return "route.net";
  }
  return "unknown";
}

InjectedFault::InjectedFault(FaultSite site, std::int64_t count)
    : std::runtime_error(std::string("injected fault at ") + to_string(site) +
                         " #" + std::to_string(count)),
      site_(site),
      count_(count) {}

void FaultPlan::kill_at(FaultSite site, std::int64_t nth) {
  arms_.push_back({site, nth, false});
}

void FaultPlan::poll(FaultSite site) {
  const std::int64_t n = counts_[static_cast<std::size_t>(site)]++;
  for (Arm& arm : arms_) {
    if (arm.fired || arm.site != site || arm.nth != n) continue;
    arm.fired = true;
    throw InjectedFault(site, n);
  }
}

const char* to_string(DiskSite site) {
  switch (site) {
    case DiskSite::kCheckpointWrite: return "checkpoint.write";
    case DiskSite::kJournalWrite: return "journal.write";
    case DiskSite::kCacheWrite: return "cache.write";
  }
  return "unknown";
}

const char* to_string(DiskFault fault) {
  switch (fault) {
    case DiskFault::kNone: return "none";
    case DiskFault::kEnospc: return "enospc";
    case DiskFault::kShortWrite: return "short_write";
  }
  return "unknown";
}

void DiskFaultPlan::fail_at(DiskSite site, std::int64_t nth, DiskFault kind) {
  const std::lock_guard<std::mutex> lock(mu_);
  arms_.push_back({site, nth, kind, /*persistent=*/false, /*fired=*/false});
}

void DiskFaultPlan::fail_from(DiskSite site, std::int64_t nth,
                              DiskFault kind) {
  const std::lock_guard<std::mutex> lock(mu_);
  arms_.push_back({site, nth, kind, /*persistent=*/true, /*fired=*/false});
}

DiskFault DiskFaultPlan::write_fault(DiskSite site) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t n = counts_[static_cast<std::size_t>(site)]++;
  for (Arm& arm : arms_) {
    if (arm.site != site) continue;
    if (arm.persistent ? n < arm.nth : (arm.fired || arm.nth != n)) continue;
    arm.fired = true;
    return arm.kind;
  }
  return DiskFault::kNone;
}

std::int64_t DiskFaultPlan::count(DiskSite site) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counts_[static_cast<std::size_t>(site)];
}

}  // namespace tw::recover
