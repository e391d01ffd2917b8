#include "embedding/embedded_qubo.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <utility>

#include "util/fault.h"
#include "util/string_util.h"

namespace qmqo {
namespace embedding {

Result<EmbeddedQubo> EmbeddedQubo::Create(const qubo::QuboProblem& logical,
                                          const Embedding& embedding,
                                          const chimera::ChimeraGraph& graph,
                                          const EmbeddedQuboOptions& options) {
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (options.chain_strength_scale < 0.0) {
    return Status::InvalidArgument("chain_strength_scale must be >= 0");
  }
  if (options.faults != nullptr) {
    QMQO_RETURN_IF_ERROR(
        options.faults->MaybeFail("embed.compile", options.fault_key));
  }
  if (logical.num_vars() != embedding.num_vars()) {
    return Status::InvalidArgument(
        StrFormat("embedding has %d chains, problem has %d variables",
                  embedding.num_vars(), logical.num_vars()));
  }
  QMQO_RETURN_IF_ERROR(embedding.VerifyStructure(graph));
  std::vector<int> owner = embedding.QubitToVar(graph);
  // One flat pass selects every cross-chain coupler (and proves one exists
  // per nonzero term — the check VerifyForProblem used to repeat with a
  // second scan).
  QMQO_ASSIGN_OR_RETURN(
      std::vector<CrossChainPlacement> placements,
      PlaceCrossChainCouplers(embedding, graph, logical, owner));

  const int num_vars = logical.num_vars();
  // Compact index space over used qubits, ordered by hardware id.
  std::vector<chimera::QubitId> used;
  for (int var = 0; var < num_vars; ++var) {
    const Chain& chain = embedding.chain(var);
    used.insert(used.end(), chain.qubits.begin(), chain.qubits.end());
  }
  std::sort(used.begin(), used.end());
  std::vector<int> compact_index(static_cast<size_t>(graph.num_qubits()), -1);
  for (size_t i = 0; i < used.size(); ++i) {
    compact_index[static_cast<size_t>(used[i])] = static_cast<int>(i);
  }

  EmbeddedQubo out(logical, qubo::QuboProblem(static_cast<int>(used.size())));
  out.used_qubits_ = std::move(used);
  out.compact_index_ = std::move(compact_index);
  out.chains_.resize(static_cast<size_t>(num_vars));
  for (int var = 0; var < num_vars; ++var) {
    for (chimera::QubitId q : embedding.chain(var).qubits) {
      out.chains_[static_cast<size_t>(var)].push_back(out.compact_of(q));
    }
  }

  // Step 1: distribute linear weights over chains.
  for (int var = 0; var < num_vars; ++var) {
    double w = logical.linear(var);
    const auto& members = out.chains_[static_cast<size_t>(var)];
    if (w == 0.0) continue;
    double share = w / static_cast<double>(members.size());
    for (int member : members) {
      out.physical_.AddLinear(member, share);
    }
  }

  // Step 2: each logical quadratic weight goes on its selected coupler.
  const std::vector<qubo::Interaction>& terms = logical.interactions();
  for (size_t t = 0; t < terms.size(); ++t) {
    if (terms[t].weight == 0.0) continue;
    out.physical_.AddQuadratic(out.compact_of(placements[t].qubit_a),
                               out.compact_of(placements[t].qubit_b),
                               terms[t].weight);
  }

  // Chain strengths via Choi's bound, computed *before* the equality
  // gadgets are added so `neighbors` sees only problem couplings.
  out.chain_strength_.assign(static_cast<size_t>(num_vars), 0.0);
  for (int var = 0; var < num_vars; ++var) {
    const auto& members = out.chains_[static_cast<size_t>(var)];
    double sum_up = 0.0;    // sum of U_{0->1}
    double sum_down = 0.0;  // sum of U_{1->0}
    for (int member : members) {
      double v = out.physical_.linear(member);
      double pos = 0.0;
      double neg = 0.0;
      for (const auto& [other, w] : out.physical_.neighbors(member)) {
        // Neighbors inside the chain do not exist yet; every neighbor here
        // crosses to another chain.
        (void)other;
        if (w > 0.0) {
          pos += w;
        } else {
          neg += -w;
        }
      }
      sum_up += std::max(0.0, v + pos);
      sum_down += std::max(0.0, -v + neg);
    }
    double u = std::min(sum_up, sum_down);
    out.chain_strength_[static_cast<size_t>(var)] =
        std::max(options.epsilon,
                 options.chain_strength_scale * u + options.epsilon);
  }

  // Step 3: ferromagnetic equality gadgets on a spanning tree of each chain.
  for (int var = 0; var < num_vars; ++var) {
    const Chain& chain = embedding.chain(var);
    if (chain.size() <= 1) continue;
    double strength = out.chain_strength_[static_cast<size_t>(var)];
    // BFS spanning tree over usable couplers within the chain.
    std::vector<uint8_t> visited(chain.qubits.size(), 0);
    std::deque<size_t> frontier{0};
    visited[0] = 1;
    int edges = 0;
    while (!frontier.empty()) {
      size_t at = frontier.front();
      frontier.pop_front();
      chimera::QubitId qa = chain.qubits[at];
      for (size_t next = 0; next < chain.qubits.size(); ++next) {
        if (visited[next]) continue;
        chimera::QubitId qb = chain.qubits[next];
        if (!graph.CouplerUsable(qa, qb)) continue;
        visited[next] = 1;
        frontier.push_back(next);
        out.physical_.AddLinear(out.compact_of(qa), strength);
        out.physical_.AddLinear(out.compact_of(qb), strength);
        out.physical_.AddQuadratic(out.compact_of(qa), out.compact_of(qb),
                                   -2.0 * strength);
        ++edges;
      }
    }
    if (edges != chain.size() - 1) {
      // Verified connected by VerifyStructure; a mismatch means the
      // coupler map changed between verification and compilation.
      return Status::Internal(StrFormat(
          "chain of variable %d is not connected over usable couplers "
          "(%d spanning edges for %d qubits)",
          var, edges, static_cast<int>(chain.size())));
    }
  }
  return out;
}

bool EmbeddedQubo::ChainsConsistent(
    const std::vector<uint8_t>& physical_x) const {
  for (const auto& members : chains_) {
    uint8_t first = physical_x[static_cast<size_t>(members.front())];
    for (int member : members) {
      if (physical_x[static_cast<size_t>(member)] != first) return false;
    }
  }
  return true;
}

double EmbeddedQubo::BrokenChainFraction(
    const std::vector<uint8_t>& physical_x) const {
  if (chains_.empty()) return 0.0;
  int broken = 0;
  for (const auto& members : chains_) {
    uint8_t first = physical_x[static_cast<size_t>(members.front())];
    for (int member : members) {
      if (physical_x[static_cast<size_t>(member)] != first) {
        ++broken;
        break;
      }
    }
  }
  return static_cast<double>(broken) / static_cast<double>(chains_.size());
}

std::vector<uint8_t> EmbeddedQubo::Unembed(
    const std::vector<uint8_t>& physical_x) const {
  std::vector<uint8_t> logical_x(chains_.size(), 0);
  for (size_t var = 0; var < chains_.size(); ++var) {
    int ones = 0;
    for (int member : chains_[var]) {
      ones += physical_x[static_cast<size_t>(member)] ? 1 : 0;
    }
    logical_x[var] =
        2 * ones > static_cast<int>(chains_[var].size()) ? 1 : 0;
  }
  // Greedy descent on the logical energy repairs majority-vote errors on
  // broken chains. Terminates: each flip strictly lowers the energy.
  bool improved = true;
  int guard = 0;
  const int max_rounds = 100;
  while (improved && guard++ < max_rounds) {
    improved = false;
    for (int var = 0; var < logical_.num_vars(); ++var) {
      if (logical_.FlipDelta(logical_x, var) < 0.0) {
        logical_x[static_cast<size_t>(var)] ^= 1;
        improved = true;
      }
    }
  }
  return logical_x;
}

std::vector<uint8_t> EmbeddedQubo::EmbedAssignment(
    const std::vector<uint8_t>& logical_x) const {
  assert(logical_x.size() == chains_.size());
  std::vector<uint8_t> physical_x(used_qubits_.size(), 0);
  for (size_t var = 0; var < chains_.size(); ++var) {
    for (int member : chains_[var]) {
      physical_x[static_cast<size_t>(member)] = logical_x[var];
    }
  }
  return physical_x;
}

}  // namespace embedding
}  // namespace qmqo
