#include "chaos/oracle.hpp"

#include "recon/reliability.hpp"

namespace sma::chaos {

namespace {

std::string replay_pair(const OracleContext& ctx) {
  return " (replay: --seed=" + std::to_string(ctx.seed) + " --scenario='" +
         ctx.spec + "')";
}

}  // namespace

Status oracle_violation(const OracleContext& ctx, const std::string& what) {
  return internal_error("chaos oracle violation [" + std::string(ctx.phase) +
                        "]: " + what + replay_pair(ctx));
}

Status replay_stamped(const OracleContext& ctx, const Status& error) {
  if (error.message().find(" (replay: --seed=") != std::string::npos)
    return error;
  return Status(error.code(), "chaos engine error [" +
                                  std::string(ctx.phase) +
                                  "]: " + error.message() + replay_pair(ctx));
}

Status check_durability(const array::DiskArray& arr,
                        const OracleContext& ctx) {
  const std::vector<int> failed = arr.failed_physical();
  if (!recon::is_recoverable(arr.arch(), failed))
    return Status::ok();  // sanctioned loss; the lifecycle check owns it
  // Checksums first: silent corruption diverges the copies too, and the
  // checksum store names the culprit element where a bare mirror
  // comparison can only report the disagreement.
  if (arr.checksums_enabled()) {
    const Status sums = arr.verify_checksums();
    if (!sums.is_ok())
      return oracle_violation(
          ctx, "checksum store disagrees with content: " + sums.to_string());
  }
  const Status consistent = arr.verify_consistency();
  if (!consistent.is_ok())
    return oracle_violation(
        ctx, "recoverable array is internally inconsistent: " +
                 consistent.to_string());
  return Status::ok();
}

Status check_resync_clean(const array::DiskArray& arr,
                          const OracleContext& ctx) {
  const integrity::DirtyRegionLog& drl = arr.dirty_log();
  if (!drl.enabled()) return Status::ok();
  const std::vector<int> dirty = drl.dirty_regions();
  if (!dirty.empty())
    return oracle_violation(
        ctx, std::to_string(dirty.size()) +
                 " dirty region(s) survived the resync (first: region " +
                 std::to_string(dirty.front()) + ")");
  return Status::ok();
}

Status check_lifecycle(const repair::Lifecycle& lc,
                       const layout::Architecture& arch,
                       const OracleContext& ctx) {
  const std::vector<repair::Transition>& hist = lc.history();
  for (std::size_t i = 0; i < hist.size(); ++i) {
    if (i > 0) {
      if (hist[i].from != hist[i - 1].to)
        return oracle_violation(
            ctx, std::string("lifecycle history is not contiguous at "
                             "transition ") +
                     std::to_string(i) + " (" +
                     repair::to_string(hist[i].from) + " after " +
                     repair::to_string(hist[i - 1].to) + ")");
      if (hist[i].t_s < hist[i - 1].t_s)
        return oracle_violation(
            ctx, "lifecycle history runs backwards in time at transition " +
                     std::to_string(i));
    }
    if (hist[i].from == repair::ArrayState::kDataLoss)
      return oracle_violation(
          ctx, "lifecycle transitioned out of the terminal data-loss state");
  }
  const bool unrec = !recon::is_recoverable(arch, lc.failed());
  const bool declared = lc.state() == repair::ArrayState::kDataLoss;
  if (unrec != declared)
    return oracle_violation(
        ctx, unrec ? "failed set is unrecoverable but the lifecycle did not "
                     "declare data loss"
                   : "lifecycle declares data loss on a recoverable set");
  return Status::ok();
}

Status check_spares(const repair::SparePool& pool, int repairs_started,
                    const OracleContext& ctx) {
  if (pool.config().inert()) return Status::ok();
  if (pool.consumed_total() != repairs_started)
    return oracle_violation(
        ctx, "spare accounting unbalanced: " +
                 std::to_string(pool.consumed_total()) + " consumed vs " +
                 std::to_string(repairs_started) + " repairs started");
  if (pool.available() < 0 || pool.available() > pool.config().count)
    return oracle_violation(
        ctx, "spare availability out of range: " +
                 std::to_string(pool.available()) + " of " +
                 std::to_string(pool.config().count));
  return Status::ok();
}

}  // namespace sma::chaos
