// A cluster node: CPU, disk, NIC and a main-memory file cache, plus the
// open-connection count that all three distribution policies use as their
// load metric.
#pragma once

#include <cstdint>
#include <string>

#include <memory>

#include "l2sim/cache/file_cache.hpp"
#include "l2sim/des/resource.hpp"
#include "l2sim/net/nic.hpp"
#include "l2sim/storage/disk.hpp"

namespace l2s::cluster {

/// Replacement policy of the node's main-memory file cache.
enum class CachePolicy { kLru, kGdsf };

/// CPU service-time parameters (Table 1 rates plus the calibrated LARD
/// front-end hand-off cost; see DESIGN.md "Model interpretation notes").
struct CpuParams {
  double parse_rate = 6300.0;        ///< mu_p: accept + read + parse a request
  double forward_rate = 10000.0;     ///< mu_f: L2S hand-off of a parsed request
  double reply_overhead_s = 0.0001;  ///< mu_m fixed term
  double reply_kb_per_s = 12000.0;   ///< mu_m per-KByte cost (memory-to-NIC copy)
  double handoff_initiate_s = 4e-5;  ///< LARD front-end hand-off initiation
};

struct NodeParams {
  Bytes cache_bytes = 32 * kMiB;
  CachePolicy cache_policy = CachePolicy::kLru;  ///< the paper uses LRU
  CpuParams cpu;
  storage::DiskParams disk;
};

class Node {
 public:
  /// `cpu_speed` scales the node's CPU service rates (1.0 = the paper's
  /// baseline workstation; 0.5 = half as fast). The paper assumes "all
  /// cluster nodes are equally powerful"; heterogeneous factors are an
  /// extension exercised by `l2sim study heterogeneity`.
  Node(des::Scheduler& sched, int id, const NodeParams& params, double cpu_speed = 1.0);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double cpu_speed() const { return cpu_speed_; }

  // --- placement ---------------------------------------------------------
  /// Which rack (ToR switch / fat-tree edge switch) the node hangs off.
  /// Assigned by the coordinator from the topology; 0 on the paper's
  /// single switch, where every node shares the one crossbar.
  [[nodiscard]] int rack() const { return rack_; }
  void set_rack(int rack) { rack_ = rack; }

  [[nodiscard]] des::Resource& cpu() { return cpu_; }
  [[nodiscard]] net::Nic& nic() { return nic_; }
  [[nodiscard]] storage::Disk& disk() { return disk_; }
  [[nodiscard]] cache::FileCache& file_cache() { return *cache_; }
  [[nodiscard]] const cache::FileCache& file_cache() const { return *cache_; }
  [[nodiscard]] const des::Resource& cpu() const { return cpu_; }

  // --- load metric -------------------------------------------------------
  [[nodiscard]] int open_connections() const { return open_connections_; }
  void connection_opened() { ++open_connections_; }
  void connection_closed();

  // --- availability ------------------------------------------------------
  [[nodiscard]] bool alive() const { return alive_; }
  /// Mark the node crashed: its in-flight work is lost (connections abort
  /// when the lifecycle next touches the node) and it serves nothing more.
  void fail() { alive_ = false; }
  /// Restart after a crash: alive again with a cold cache and zeroed load
  /// state. Bumps the incarnation epoch so connections counted against the
  /// previous life cannot decrement the fresh open-connection count.
  void recover();
  /// Incremented on every recover(); connection bookkeeping records the
  /// epoch it was counted under and only releases into the same epoch.
  [[nodiscard]] int epoch() const { return epoch_; }

  // --- fail-slow injection -----------------------------------------------
  /// Multiply CPU service times (parse/forward/hand-off/reply) by `factor`.
  void set_cpu_slow(double factor);
  [[nodiscard]] double cpu_slow() const { return cpu_slow_; }
  /// Multiply disk read times by `factor` (forwards to the disk).
  void set_disk_slow(double factor) { disk_.set_slow_factor(factor); }

  // --- service times -----------------------------------------------------
  [[nodiscard]] SimTime parse_time() const;
  [[nodiscard]] SimTime forward_time() const;          ///< L2S hand-off (1/mu_f)
  [[nodiscard]] SimTime handoff_initiate_time() const; ///< LARD front-end
  [[nodiscard]] SimTime reply_time(Bytes bytes) const; ///< mu_m

  void reset_stats();

 private:
  int id_;
  int rack_ = 0;
  std::string name_;
  CpuParams cpu_params_;
  double cpu_speed_ = 1.0;
  des::Resource cpu_;
  net::Nic nic_;
  storage::Disk disk_;
  std::unique_ptr<cache::FileCache> cache_;
  int open_connections_ = 0;
  bool alive_ = true;
  int epoch_ = 0;
  double cpu_slow_ = 1.0;
};

}  // namespace l2s::cluster
