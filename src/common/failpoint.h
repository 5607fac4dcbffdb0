// Deterministic fault injection (failpoints).
//
// A failpoint is a named site in the code ("service/run",
// "journal/after_append", ...) where a test or an operator can inject a
// fault without recompiling: an error Status returned from the enclosing
// function, a fixed delay, or a process abort (for crash-recovery tests).
// Sites fire deterministically — every Nth hit, or with a seeded
// per-hit probability derived from (seed, hit index) — so a chaos schedule
// replays bit-identically from its seed.
//
// Activation is per-site, via the API (Failpoints::Activate) or the
// UPA_FAILPOINTS environment variable, a ';'-separated list of
// site=spec activations, for example:
//
//   UPA_FAILPOINTS="upa/phase_reduce=error(internal):every(3)"
//   UPA_FAILPOINTS="journal/after_append=abort:every(5);net/read=delay(2)"
//   UPA_FAILPOINTS="threadpool/task=delay(2):prob(0.25,42)"
//
// Spec grammar (whitespace-free):  <action>[:<trigger>]
//   action  := error(<code>[,<message>]) | delay(<millis>) | abort | kill
//   trigger := every(<n>)        fire on hits n, 2n, 3n, ...   (default 1)
//            | prob(<p>[,<seed>]) fire iff splitmix(seed, hit) < p
//   <code>  := a StatusCodeName, case-insensitive ("internal",
//              "cancelled", "resource_exhausted", ...)
//
// Cost when nothing is active: UPA_FAILPOINT compiles to one relaxed
// atomic load and a predictable branch (measured in bench_engine_micro).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"

namespace upa {

/// Singleton registry of failpoint sites. All methods are thread-safe.
class Failpoints {
 public:
  enum class Action { kError, kDelay, kAbort, kKill };
  enum class Trigger { kEveryN, kProbability };

  struct Spec {
    Action action = Action::kError;
    StatusCode error_code = StatusCode::kInternal;
    std::string error_message;  // empty → "injected fault at '<site>'"
    double delay_millis = 0.0;
    Trigger trigger = Trigger::kEveryN;
    uint64_t every_n = 1;
    double probability = 1.0;
    uint64_t seed = 0;
  };

  struct SiteStats {
    uint64_t hits = 0;   // times an activated site was evaluated
    uint64_t fires = 0;  // times it actually injected its fault
  };

  static Failpoints& Instance();

  /// Activate `site` with a parsed `spec` string (grammar in the file
  /// comment). Replaces any existing activation; resets hit counts.
  Status Activate(const std::string& site, const std::string& spec);
  void Activate(const std::string& site, const Spec& spec);
  void Deactivate(const std::string& site);
  void DeactivateAll();

  /// Parse UPA_FAILPOINTS (or `env_value` when non-null, for tests) as a
  /// ';'-separated list of site=spec activations.
  Status LoadFromEnv(const char* env_value = nullptr);

  /// Hit/fire counts for an activated site ({0,0} when never activated).
  SiteStats StatsFor(const std::string& site) const;

  /// True when at least one site is active — the macro's fast-path guard.
  bool AnyActive() const {
    return active_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Slow path behind UPA_FAILPOINT: evaluates `site` if active.
  /// Returns the injected error (action=error), sleeps then returns OK
  /// (action=delay), aborts the process (action=abort), or returns OK when
  /// the site is inactive / its trigger does not fire on this hit.
  Status Evaluate(const char* site);

  /// Parse a spec string into a Spec without activating anything.
  static Status ParseSpec(const std::string& text, Spec* out);

 private:
  struct Site {
    Spec spec;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> fires{0};
  };

  Failpoints() = default;

  mutable std::mutex mu_;
  // shared_ptr: Evaluate uses a site's counters after dropping the lock,
  // so a concurrent Deactivate must not free it out from under the hit.
  std::map<std::string, std::shared_ptr<Site>> sites_;
  std::atomic<int> active_count_{0};
};

}  // namespace upa

/// Fault-injection site in a Status/Result-returning function: when the
/// site is active and fires with an error action, the enclosing function
/// returns the injected Status.
#define UPA_FAILPOINT(site)                                          \
  do {                                                               \
    if (::upa::Failpoints::Instance().AnyActive()) {                 \
      ::upa::Status _fp_st = ::upa::Failpoints::Instance().Evaluate(site); \
      if (!_fp_st.ok()) return _fp_st;                               \
    }                                                                \
  } while (0)
/// Fault-injection site in a void/value context (thread-pool task bodies,
/// columnar build): delay and abort actions apply; an error action only
/// counts the fire (there is no Status channel to return it on).
#define UPA_FAILPOINT_HIT(site)                                      \
  do {                                                               \
    if (::upa::Failpoints::Instance().AnyActive()) {                 \
      (void)::upa::Failpoints::Instance().Evaluate(site);            \
    }                                                                \
  } while (0)
