#include "repair/lifecycle.hpp"

#include <algorithm>
#include <utility>

namespace sma::repair {

namespace {

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

void erase_value(std::vector<int>& v, int x) {
  v.erase(std::remove(v.begin(), v.end(), x), v.end());
}

}  // namespace

Lifecycle::Lifecycle(layout::Architecture arch, obs::Attach observer)
    : arch_(std::move(arch)), observer_(observer) {}

std::string reason(const Transition& t) {
  std::string out;
  switch (t.cause) {
    case Cause::kFailure: out = "failure of disk "; break;
    case Cause::kRepairStart: out = "repair start of disk "; break;
    case Cause::kRepairComplete: out = "repair complete of disk "; break;
    case Cause::kSpareExhausted: return "spare pool exhausted";
    case Cause::kSpareAvailable: return "spare pool replenished";
    case Cause::kCrash: return "power-loss crash";
    case Cause::kResyncStart: return "resync start";
    case Cause::kResyncComplete: return "resync complete";
  }
  out += std::to_string(t.disk);
  return out;
}

Status Lifecycle::reclassify(double t_s, Cause cause, int disk) {
  const ArrayState next =
      classify(arch_, failed_, !repairing_.empty(), spare_starved_,
               inconsistent_, resyncing_);
  if (next == state_) return Status::ok();
  history_.push_back({t_s, state_, next, cause, disk});
  if (obs::Observer* ob = observer_.get(); ob != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kStateChange;
    ev.t_s = t_s;
    ev.state_from = static_cast<int>(state_);
    ev.state_to = static_cast<int>(next);
    ob->emit(ev);
    ob->count("repair.state_changes");
  }
  state_ = next;
  return Status::ok();
}

Status Lifecycle::on_failure(double t_s, int disk) {
  if (terminal())
    return failed_precondition("lifecycle event after data loss");
  if (disk < 0 || disk >= arch_.total_disks())
    return invalid_argument("failure of unknown disk " + std::to_string(disk));
  if (contains(failed_, disk))
    return failed_precondition("disk " + std::to_string(disk) +
                               " failed twice without a repair");
  failed_.insert(std::upper_bound(failed_.begin(), failed_.end(), disk),
                 disk);
  return reclassify(t_s, Cause::kFailure, disk);
}

Status Lifecycle::on_repair_start(double t_s, int disk) {
  if (terminal())
    return failed_precondition("lifecycle event after data loss");
  if (!contains(failed_, disk))
    return failed_precondition("repair of disk " + std::to_string(disk) +
                               " that is not failed");
  if (contains(repairing_, disk))
    return failed_precondition("repair of disk " + std::to_string(disk) +
                               " started twice");
  repairing_.push_back(disk);
  spare_starved_ = false;
  return reclassify(t_s, Cause::kRepairStart, disk);
}

Status Lifecycle::on_repair_complete(double t_s, int disk) {
  if (terminal())
    return failed_precondition("lifecycle event after data loss");
  if (!contains(repairing_, disk))
    return failed_precondition("repair completion of disk " +
                               std::to_string(disk) +
                               " that was never started");
  erase_value(repairing_, disk);
  erase_value(failed_, disk);
  return reclassify(t_s, Cause::kRepairComplete, disk);
}

Status Lifecycle::on_spare_exhausted(double t_s) {
  if (terminal())
    return failed_precondition("lifecycle event after data loss");
  spare_starved_ = true;
  return reclassify(t_s, Cause::kSpareExhausted);
}

Status Lifecycle::on_spare_available(double t_s) {
  if (terminal())
    return failed_precondition("lifecycle event after data loss");
  spare_starved_ = false;
  return reclassify(t_s, Cause::kSpareAvailable);
}

Status Lifecycle::on_crash(double t_s) {
  if (terminal())
    return failed_precondition("lifecycle event after data loss");
  inconsistent_ = true;
  // A crash mid-resync kills that resync; the array is back to plain
  // inconsistent and a new resync must start from the (surviving) log.
  resyncing_ = false;
  return reclassify(t_s, Cause::kCrash);
}

Status Lifecycle::on_resync_start(double t_s) {
  if (terminal())
    return failed_precondition("lifecycle event after data loss");
  if (!inconsistent_)
    return failed_precondition("resync start on an array that is consistent");
  if (resyncing_) return failed_precondition("resync started twice");
  resyncing_ = true;
  return reclassify(t_s, Cause::kResyncStart);
}

Status Lifecycle::on_resync_complete(double t_s) {
  if (terminal())
    return failed_precondition("lifecycle event after data loss");
  if (!resyncing_)
    return failed_precondition("resync completion that was never started");
  resyncing_ = false;
  inconsistent_ = false;
  return reclassify(t_s, Cause::kResyncComplete);
}

}  // namespace sma::repair
