#include "dist/aggregate.h"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <optional>
#include <span>
#include <utility>

#include "dist/node.h"
#include "server/net.h"
#include "stream/zipf.h"

namespace streamfreq {
namespace {

constexpr uint64_t kStreamSalt = 0x9E3779B97F4A7C15ULL;

std::string SocketPath(const std::string& dir, uint64_t node) {
  return dir + "/node-" + std::to_string(node) + ".sock";
}

/// Blocking ship of `self`'s next delta (if there is one) over `up_fd`,
/// waiting for and folding the cumulative ack.
Status ShipAndAck(FleetNode* self, int up_fd, bool final_flag) {
  STREAMFREQ_ASSIGN_OR_RETURN(std::optional<std::string> payload,
                              self->NextUplink(final_flag));
  if (!payload.has_value()) return Status::OK();
  STREAMFREQ_RETURN_NOT_OK(SendFrame(up_fd, *payload));
  STREAMFREQ_ASSIGN_OR_RETURN(std::string ack_frame, RecvFrame(up_fd));
  STREAMFREQ_ASSIGN_OR_RETURN(uint64_t ack, DecodeAck(ack_frame));
  return self->Acked(ack);
}

/// Leaf worker: ingest the seeded substream in delta_every chunks, shipping
/// after each, final flag on the last.
Status RunWorker(const AggregateOptions& options, const TreeTopology& topo,
                 FleetNode* self, uint64_t leaf_index) {
  STREAMFREQ_ASSIGN_OR_RETURN(std::vector<ItemId> items,
                              WorkerStreamItems(options, leaf_index));
  STREAMFREQ_ASSIGN_OR_RETURN(
      OwnedFd up, ConnectUnix(SocketPath(options.socket_dir,
                                         topo.parent[self->id()])));
  const uint64_t step = std::max<uint64_t>(1, options.delta_every);
  for (uint64_t off = 0; off < items.size() || off == 0;) {
    const uint64_t n = std::min<uint64_t>(step, items.size() - off);
    self->Admit(std::span<const ItemId>(items.data() + off, n), n);
    off += n;
    STREAMFREQ_RETURN_NOT_OK(
        ShipAndAck(self, up.get(), /*final_flag=*/off >= items.size()));
    if (off >= items.size()) break;
  }
  return Status::OK();
}

/// Interior relay (and the root, which has no uplink): accept every child,
/// apply/ack their deltas, forward upward after each apply, tear down when
/// every child hung up after its final delta.
Status RunRelay(const AggregateOptions& options, const TreeTopology& topo,
                OwnedFd listener, FleetNode* self) {
  const uint64_t node = self->id();
  const std::vector<uint64_t>& children = topo.children[node];
  OwnedFd up;
  if (node != 0) {
    STREAMFREQ_ASSIGN_OR_RETURN(
        up, ConnectUnix(SocketPath(options.socket_dir, topo.parent[node])));
  }
  std::vector<OwnedFd> conns;
  conns.reserve(children.size());
  for (size_t i = 0; i < children.size(); ++i) {
    STREAMFREQ_ASSIGN_OR_RETURN(OwnedFd conn, AcceptConn(listener));
    conns.push_back(std::move(conn));
  }
  size_t open = conns.size();
  std::vector<bool> closed(conns.size(), false);
  while (open > 0) {
    std::vector<pollfd> fds;
    std::vector<size_t> index;
    for (size_t i = 0; i < conns.size(); ++i) {
      if (closed[i]) continue;
      fds.push_back(pollfd{conns[i].get(), POLLIN, 0});
      index.push_back(i);
    }
    int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("poll failed on relay node");
    }
    for (size_t f = 0; f < fds.size(); ++f) {
      if ((fds[f].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const size_t i = index[f];
      Result<std::string> frame = RecvFrame(conns[i].get());
      if (!frame.ok()) {
        if (frame.status().IsNotFound()) {
          closed[i] = true;  // clean EOF after the child's final ack
          --open;
          continue;
        }
        return frame.status();
      }
      STREAMFREQ_ASSIGN_OR_RETURN(DeltaPayload delta, DecodeDelta(*frame));
      bool applied = false;
      STREAMFREQ_ASSIGN_OR_RETURN(uint64_t ack, self->Apply(delta, &applied));
      STREAMFREQ_RETURN_NOT_OK(SendFrame(conns[i].get(), EncodeAck(ack)));
      if (node != 0) {
        STREAMFREQ_RETURN_NOT_OK(
            ShipAndAck(self, up.get(), /*final_flag=*/false));
      }
    }
  }
  if (node != 0) {
    STREAMFREQ_RETURN_NOT_OK(ShipAndAck(self, up.get(), /*final_flag=*/true));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<ItemId>> WorkerStreamItems(const AggregateOptions& options,
                                              uint64_t leaf_index) {
  auto gen =
      ZipfGenerator::Make(options.universe, options.zipf_z,
                          options.seed ^ ((leaf_index + 1) * kStreamSalt));
  if (!gen.ok()) return gen.status();
  return gen->Take(options.items);
}

Result<AggregateReport> RunAggregate(const AggregateOptions& options) {
  if (options.socket_dir.empty()) {
    return Status::InvalidArgument("aggregate needs a socket directory");
  }
  STREAMFREQ_ASSIGN_OR_RETURN(
      TreeTopology topo, BuildBalancedTree(options.workers, options.fanout));
  // Leaf index (stream assignment) per leaf node id.
  std::map<uint64_t, uint64_t> leaf_index;
  for (uint64_t i = 0; i < topo.leaves.size(); ++i) {
    leaf_index[topo.leaves[i]] = i;
  }
  // Every listener exists before the first fork: a child can never race
  // its parent's bind.
  std::map<uint64_t, OwnedFd> listeners;
  for (uint64_t u = 0; u < topo.size(); ++u) {
    if (topo.is_leaf(u)) continue;
    STREAMFREQ_ASSIGN_OR_RETURN(
        OwnedFd fd, ListenUnix(SocketPath(options.socket_dir, u)));
    listeners[u] = std::move(fd);
  }
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch zero,
                              CountSketch::Make(options.params));
  STREAMFREQ_ASSIGN_OR_RETURN(FleetNode root,
                              FleetNode::Make(topo, 0, zero, options.tracked));
  std::vector<pid_t> pids;
  for (uint64_t u = 1; u < topo.size(); ++u) {
    const pid_t pid = ::fork();
    if (pid < 0) return Status::IoError("fork failed");
    if (pid == 0) {
      // Child: keep only this node's listener; drop the rest.
      OwnedFd mine = std::move(listeners[u]);
      listeners.clear();
      Result<FleetNode> self = FleetNode::Make(topo, u, zero, options.tracked);
      Status s = self.status();
      if (s.ok()) {
        s = topo.is_leaf(u) ? RunWorker(options, topo, &*self, leaf_index[u])
                            : RunRelay(options, topo, std::move(mine), &*self);
      }
      std::_Exit(s.ok() ? 0 : 3);
    }
    pids.push_back(pid);
  }
  Status root_status = RunRelay(options, topo, std::move(listeners[0]), &root);
  listeners.clear();
  bool child_failed = false;
  for (pid_t pid : pids) {
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, 0) != pid ||
        !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
      child_failed = true;
    }
  }
  for (uint64_t u = 0; u < topo.size(); ++u) {
    if (!topo.is_leaf(u)) {
      ::unlink(SocketPath(options.socket_dir, u).c_str());
    }
  }
  STREAMFREQ_RETURN_NOT_OK(root_status);
  if (child_failed) {
    return Status::Internal("an aggregate worker or relay exited non-zero");
  }
  AggregateReport report;
  report.nodes = topo.size();
  report.depth = topo.max_depth();
  report.leaves = topo.leaves.size();
  report.ledger = root.TotalLedger();
  report.covered = root.Coverage();
  report.deltas_applied = root.deltas_applied();
  report.delta_dedups = root.delta_dedups();
  report.topk = root.ApproxTop(options.topk);
  if (!report.ledger.ConservationHolds()) {
    return Status::Internal("root ledger violates conservation");
  }
  return report;
}

}  // namespace streamfreq
