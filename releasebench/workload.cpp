#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_set>

#include "common/rng.h"

namespace upa::releasebench {

namespace {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "same_dataset", .offered_qps = 48, .closed_cap_qps = 400,
       .shared_alias = true},
      {.name = "adhoc_cold", .offered_qps = 160, .closed_cap_qps = 900,
       .cold = true},
      {.name = "routed", .offered_qps = 160, .closed_cap_qps = 800,
       .routed = true},
  };
  return kWorkloads;
}

/// Draws literal-parameterised SQL of one template. The literal ranges keep
/// every exact answer well away from 0 at any data scale the benchmark uses.
std::string DrawSql(int kind, Rng& rng) {
  char buf[256];
  if (kind == 0) {
    int64_t q = rng.UniformInt(1, 8);
    int64_t lo = rng.UniformInt(0, 500);
    int64_t hi = lo + rng.UniformInt(1800, 2055);
    std::snprintf(buf, sizeof(buf),
                  "SELECT COUNT(*) FROM lineitem WHERE l_quantity >= %lld AND "
                  "l_shipdate >= %lld AND l_shipdate < %lld",
                  static_cast<long long>(q), static_cast<long long>(lo),
                  static_cast<long long>(hi));
  } else if (kind == 1) {
    int64_t lo = rng.UniformInt(0, 500);
    int64_t hi = lo + rng.UniformInt(1800, 2055);
    std::snprintf(buf, sizeof(buf),
                  "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
                  "WHERE l_shipdate >= %lld AND l_shipdate < %lld",
                  static_cast<long long>(lo), static_cast<long long>(hi));
  } else {
    int64_t lo = rng.UniformInt(0, 500);
    int64_t hi = lo + rng.UniformInt(1800, 2055);
    int64_t q = rng.UniformInt(44, 51);
    std::snprintf(buf, sizeof(buf),
                  "SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = "
                  "l_orderkey WHERE o_orderdate >= %lld AND o_orderdate < %lld "
                  "AND l_quantity < %lld",
                  static_cast<long long>(lo), static_cast<long long>(hi),
                  static_cast<long long>(q));
  }
  return buf;
}

/// Hands out (shape, alias) pairs for one request stream: warm streams
/// cycle a fixed shape pool kRepeatsPerShape times per alias, cold streams
/// draw a never-seen shape for every request. Both rotate to a fresh alias
/// every kRequestsPerAlias requests.
class Planner {
 public:
  Planner(const WorkloadSpec& spec, const ScheduleParams& params)
      : spec_(spec), params_(params),
        rng_(Rng::ForStream(params.seed, "releasebench/" + spec.name)) {
    if (!spec.cold) {
      for (size_t i = 0; i < kWarmShapesPerAlias; ++i) {
        warm_pool_.push_back(NewShape(static_cast<int>(i % 3)));
      }
    }
    streams_.resize(spec.shared_alias ? 1 : kConnections);
  }

  struct Item {
    uint32_t shape;
    uint32_t alias;
  };

  Item Next(size_t conn) {
    size_t s = spec_.shared_alias ? 0 : conn;
    Stream& stream = streams_[s];
    if (stream.left == 0) {
      stream.alias = NewAlias(s);
      stream.left = kRequestsPerAlias;
      stream.block.clear();
      if (!spec_.cold) {
        for (size_t r = 0; r < kRepeatsPerShape; ++r) {
          stream.block.insert(stream.block.end(), warm_pool_.begin(),
                              warm_pool_.end());
        }
        rng_.Shuffle(stream.block);
      }
    }
    size_t k = kRequestsPerAlias - stream.left--;
    uint32_t shape = spec_.cold ? NewShape(static_cast<int>(rng_.UniformU64(3)))
                                : stream.block[k];
    return {shape, stream.alias};
  }

  /// Pre-warm shapes for an alias: the warm pool (fills the sensitivity
  /// cache) or two fresh shapes (opens the journal, touches the code).
  std::vector<uint32_t> PrewarmShapes() {
    if (!spec_.cold) return warm_pool_;
    return {NewShape(0), NewShape(1)};
  }

  /// Connection that sends an alias's pre-warm, in order.
  size_t OwnerOf(uint32_t alias) const { return alias_owner_[alias]; }

  RequestTable& table() { return table_; }

 private:
  struct Stream {
    uint32_t alias = 0;
    size_t left = 0;
    std::vector<uint32_t> block;
  };

  uint32_t NewShape(int kind) {
    std::string sql;
    do {
      sql = DrawSql(kind, rng_);
    } while (!seen_.insert(sql).second);
    table_.shapes.push_back(Shape{kind, std::move(sql)});
    return static_cast<uint32_t>(table_.shapes.size() - 1);
  }

  uint32_t NewAlias(size_t stream) {
    std::string name;
    do {
      name = "lineitem@" + std::to_string(next_alias_++);
    } while (params_.alias_fits && !params_.alias_fits(name, stream));
    table_.aliases.push_back(name);
    // A shared stream's aliases spread their pre-warm over the connections.
    alias_owner_.push_back(spec_.shared_alias
                               ? (table_.aliases.size() - 1) % kConnections
                               : stream);
    return static_cast<uint32_t>(table_.aliases.size() - 1);
  }

  const WorkloadSpec& spec_;
  const ScheduleParams& params_;
  Rng rng_;
  RequestTable table_;
  std::vector<uint32_t> warm_pool_;
  std::vector<Stream> streams_;
  std::vector<size_t> alias_owner_;
  std::unordered_set<std::string> seen_;
  uint64_t next_alias_ = 0;
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

int64_t RequestTable::IndexOf(uint64_t seed) const {
  uint64_t index = seed - seed_base;
  return index < requests.size() ? static_cast<int64_t>(index) : -1;
}

net::WireQuery RequestTable::WireFor(size_t index) const {
  const Request& req = requests[index];
  net::WireQuery query;
  query.client_tag = index + 1;
  // Keyed like net::Client's queries (a nonce per connection, a sequence
  // number per request), so releases take the exactly-once path: dedup
  // lookup and insert, and the response blob in every kRelease record.
  query.client_nonce = seed_base | (req.conn + 1);
  query.client_seq = index;
  query.tenant = "tenant" + std::to_string(req.conn);
  query.dataset_id = aliases[req.alias];
  query.epsilon = kEpsilon;
  query.seed = req.seed;
  query.sql = shapes[req.shape].sql;
  return query;
}

RequestTable BuildSchedule(const WorkloadSpec& spec, const ScheduleParams& p) {
  Planner planner(spec, p);
  Rng arrivals = Rng::ForStream(p.seed, "releasebench/arrivals/" + spec.name);

  std::vector<Request> measured;
  // Open loop: Poisson arrivals, dealt round-robin to the connections.
  double t = 0.0;
  for (size_t i = 0;; ++i) {
    t += arrivals.Exponential(spec.offered_qps);
    if (t >= p.open_seconds) break;
    Request req;
    req.conn = static_cast<uint32_t>(i % kConnections);
    req.phase = Phase::kOpen;
    req.due_ns = static_cast<int64_t>(t * 1e9);
    Planner::Item item = planner.Next(req.conn);
    req.shape = item.shape;
    req.alias = item.alias;
    measured.push_back(req);
  }
  // Closed loop: each connection works through its own queue.
  for (size_t i = 0; i < p.closed_pool; ++i) {
    Request req;
    req.conn = static_cast<uint32_t>(i % kConnections);
    req.phase = Phase::kClosed;
    Planner::Item item = planner.Next(req.conn);
    req.shape = item.shape;
    req.alias = item.alias;
    measured.push_back(req);
  }
  // Alternate whole rounds (one request per connection), so that traced
  // and untraced requests are spread evenly over the connections.
  for (size_t i = 0; i < measured.size(); ++i) {
    measured[i].traced = p.trace && (i / kConnections) % 2 == 0;
  }

  // Pre-warm every alias the measured requests touch, on the connection
  // that owns it, before any measured request.
  RequestTable& table = planner.table();
  const size_t aliases = table.aliases.size();
  for (uint32_t alias = 0; alias < aliases; ++alias) {
    for (uint32_t shape : planner.PrewarmShapes()) {
      Request req;
      req.conn = static_cast<uint32_t>(planner.OwnerOf(alias));
      req.phase = Phase::kPrewarm;
      req.shape = shape;
      req.alias = alias;
      table.requests.push_back(req);
    }
  }
  table.requests.insert(table.requests.end(), measured.begin(),
                        measured.end());

  table.seed_base =
      SplitMix64(p.seed ^ 0x72656c6561736562ULL).Next() & ~0xffffffffULL;
  for (size_t i = 0; i < table.requests.size(); ++i) {
    table.requests[i].seed = table.seed_base + i;
  }
  table.spans = std::make_unique<ServerSpan[]>(table.requests.size());
  return std::move(table);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace upa::releasebench
