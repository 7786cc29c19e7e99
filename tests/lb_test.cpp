// Tests for the load-balancer tier: ACL semantics, request processing, and
// the cluster's controller-driven mitigation loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hierarchy/prefix1d.hpp"
#include "lb/acl.hpp"
#include "lb/cluster.hpp"
#include "lb/http.hpp"
#include "lb/load_balancer.hpp"
#include "lb/mitigation_policy.hpp"
#include "trace/flood_injector.hpp"
#include "trace/trace_generator.hpp"
#include "util/random.hpp"

namespace memento::lb {
namespace {

constexpr std::uint32_t ip(std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return (a << 24) | (b << 16) | (c << 8) | d;
}

// --- ACL ------------------------------------------------------------------------

TEST(Acl, DefaultIsAllow) {
  acl table;
  EXPECT_EQ(table.lookup(ip(1, 2, 3, 4)), acl_action::allow);
}

TEST(Acl, SubnetRuleCoversAllHosts) {
  acl table;
  table.set_rule(ip(10, 0, 0, 0), 3, acl_action::deny);  // 10.0.0.0/8
  EXPECT_EQ(table.lookup(ip(10, 1, 2, 3)), acl_action::deny);
  EXPECT_EQ(table.lookup(ip(10, 255, 255, 255)), acl_action::deny);
  EXPECT_EQ(table.lookup(ip(11, 1, 2, 3)), acl_action::allow);
}

TEST(Acl, MostSpecificRuleWins) {
  acl table;
  table.set_rule(ip(10, 0, 0, 0), 3, acl_action::deny);     // /8 deny
  table.set_rule(ip(10, 1, 0, 0), 2, acl_action::allow);    // /16 carve-out
  table.set_rule(ip(10, 1, 2, 3), 0, acl_action::tarpit);   // /32 override
  EXPECT_EQ(table.lookup(ip(10, 9, 9, 9)), acl_action::deny);
  EXPECT_EQ(table.lookup(ip(10, 1, 9, 9)), acl_action::allow);
  EXPECT_EQ(table.lookup(ip(10, 1, 2, 3)), acl_action::tarpit);
}

TEST(Acl, ClearRuleRestoresDefault) {
  acl table;
  table.set_rule(ip(10, 0, 0, 0), 3, acl_action::deny);
  table.clear_rule(ip(10, 0, 0, 0), 3);
  EXPECT_EQ(table.lookup(ip(10, 1, 2, 3)), acl_action::allow);
  table.set_rule(ip(10, 0, 0, 0), 3, acl_action::deny);
  table.clear();
  EXPECT_EQ(table.lookup(ip(10, 1, 2, 3)), acl_action::allow);
  EXPECT_EQ(table.size(), 0u);
}

TEST(Acl, PrefixKeyedRuleInstallation) {
  acl table;
  table.set_rule(prefix1d::make_key(ip(20, 0, 0, 0), 3), acl_action::tarpit);
  EXPECT_EQ(table.lookup(ip(20, 5, 5, 5)), acl_action::tarpit);
}

// --- load balancer -----------------------------------------------------------------

TEST(LoadBalancer, RejectsZeroBackends) {
  EXPECT_THROW(load_balancer(0, 0), std::invalid_argument);
}

TEST(LoadBalancer, RoundRobinSpreadsLoad) {
  load_balancer balancer(0, 4);
  for (int i = 0; i < 400; ++i) {
    (void)balancer.process(request_from_packet({static_cast<std::uint32_t>(i), 0}));
  }
  for (std::size_t b = 0; b < 4; ++b) EXPECT_EQ(balancer.backend_load(b), 100u);
  EXPECT_EQ(balancer.stats().forwarded, 400u);
}

TEST(LoadBalancer, AclVerdictsEnforced) {
  load_balancer balancer(0, 2);
  balancer.access_list().set_rule(ip(10, 0, 0, 0), 3, acl_action::deny);
  balancer.access_list().set_rule(ip(20, 0, 0, 0), 3, acl_action::tarpit);
  EXPECT_EQ(balancer.process(request_from_packet({ip(10, 1, 1, 1), 0})), verdict::denied);
  EXPECT_EQ(balancer.process(request_from_packet({ip(20, 1, 1, 1), 0})), verdict::tarpitted);
  EXPECT_EQ(balancer.process(request_from_packet({ip(30, 1, 1, 1), 0})), verdict::forwarded);
  EXPECT_EQ(balancer.stats().denied, 1u);
  EXPECT_EQ(balancer.stats().tarpitted, 1u);
  EXPECT_EQ(balancer.stats().forwarded, 1u);
  EXPECT_EQ(balancer.stats().received, 3u);
}

TEST(LoadBalancer, MeasurementHookSeesBlockedIngress) {
  // Mitigation must not blind the measurement (file comment in
  // load_balancer.hpp): the hook fires for denied requests too.
  load_balancer balancer(0, 1);
  balancer.access_list().set_rule(ip(10, 0, 0, 0), 3, acl_action::deny);
  int seen = 0;
  balancer.set_measurement_hook([&](const http_request&) { ++seen; });
  (void)balancer.process(request_from_packet({ip(10, 1, 1, 1), 0}));
  (void)balancer.process(request_from_packet({ip(30, 1, 1, 1), 0}));
  EXPECT_EQ(seen, 2);
}

// --- cluster -----------------------------------------------------------------------

TEST(Cluster, TotalsAggregateAcrossBalancers) {
  cluster_config cfg;
  cfg.num_balancers = 4;
  cfg.window = 5000;
  cfg.counters = 256;
  cfg.detect_stride = 1u << 30;  // never detect: pure routing test
  cluster c(cfg);
  auto trace = make_trace(trace_kind::edge, 2000);
  for (const auto& p : trace) (void)c.handle(request_from_packet(p));
  const auto totals = c.total_stats();
  EXPECT_EQ(totals.received, 2000u);
  EXPECT_EQ(totals.forwarded, 2000u);
  EXPECT_EQ(c.requests(), 2000u);
}

TEST(Cluster, SameClientAlwaysSameBalancer) {
  cluster_config cfg;
  cfg.num_balancers = 8;
  cfg.window = 5000;
  cfg.counters = 256;
  cfg.detect_stride = 1u << 30;
  cluster c(cfg);
  // One client, many requests: exactly one balancer must have received them.
  for (int i = 0; i < 100; ++i) {
    (void)c.handle(request_from_packet({ip(9, 9, 9, 9), static_cast<std::uint32_t>(i)}));
  }
  int nonzero = 0;
  for (std::size_t i = 0; i < c.size(); ++i) nonzero += c.balancer(i).stats().received > 0;
  EXPECT_EQ(nonzero, 1);
}

TEST(Cluster, FloodSubnetsGetBlocked) {
  cluster_config cfg;
  cfg.num_balancers = 10;
  cfg.window = 50000;
  cfg.counters = 1024;
  cfg.theta = 0.03;
  cfg.detect_stride = 500;
  cluster c(cfg);

  auto base = make_trace(trace_kind::backbone, 60000, /*seed=*/3);
  flood_config fc;
  fc.num_subnets = 5;
  fc.flood_probability = 0.7;
  fc.start_range = 10000;
  const auto flood = inject_flood(base, fc);

  for (const auto& lp : flood.packets) (void)c.handle(request_from_packet(lp.pkt));

  // Every true attacking /8 must be blocked by the end (5 subnets at ~14%
  // of traffic each, far above theta = 3%).
  for (const auto subnet : flood.subnets) {
    EXPECT_TRUE(c.is_blocked(prefix1d::make_key(subnet, 3)))
        << "unblocked flood subnet " << format_ipv4(subnet);
  }
  const auto totals = c.total_stats();
  EXPECT_GT(totals.denied, 0u);
}

TEST(Cluster, MitigationReducesForwardedAttackTraffic) {
  auto base = make_trace(trace_kind::backbone, 40000, /*seed=*/5);
  flood_config fc;
  fc.num_subnets = 3;
  fc.start_range = 5000;
  const auto flood = inject_flood(base, fc);

  auto run = [&](std::size_t detect_stride) {
    cluster_config cfg;
    cfg.window = 30000;
    cfg.counters = 1024;
    cfg.theta = 0.05;
    cfg.detect_stride = detect_stride;
    cluster c(cfg);
    std::uint64_t attack_forwarded = 0;
    for (const auto& lp : flood.packets) {
      const auto v = c.handle(request_from_packet(lp.pkt));
      attack_forwarded += lp.is_attack && v == verdict::forwarded;
    }
    return attack_forwarded;
  };

  const auto with_detection = run(500);
  const auto without_detection = run(1u << 30);
  EXPECT_LT(with_detection, without_detection / 5)
      << "mitigation must stop the vast majority of attack requests";
}

// --- mitigation policy: allocation-free evaluate ------------------------------

bool same_decisions(const std::vector<mitigation_decision>& a,
                    const std::vector<mitigation_decision>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].prefix_key != b[i].prefix_key || a[i].from != b[i].from || a[i].to != b[i].to) {
      return false;
    }
  }
  return true;
}

// Reference evaluation for the decision order: the direct map-based
// algorithm (a map lookup per active rule, a sorted copy of the snapshot),
// which both mitigation_policy overloads must match transition for
// transition.
struct map_policy_oracle {
  mitigation_config config;
  std::unordered_map<std::uint64_t, mitigation_level> active;

  std::vector<mitigation_decision> evaluate(
      const std::unordered_map<std::uint64_t, double>& shares) {
    std::vector<mitigation_decision> decisions;
    for (auto it = active.begin(); it != active.end();) {
      const auto found = shares.find(it->first);
      const double share = found == shares.end() ? 0.0 : found->second;
      const mitigation_level current = it->second;
      mitigation_level next = current;
      if (share < config.release_theta) {
        next = mitigation_level::none;
      } else if (current == mitigation_level::blocked && share < config.limit_theta) {
        next = mitigation_level::rate_limited;
      }
      if (next != current) {
        decisions.push_back({it->first, current, next});
        if (next == mitigation_level::none) {
          it = active.erase(it);
          continue;
        }
        it->second = next;
      }
      ++it;
    }
    std::vector<std::pair<std::uint64_t, double>> ordered(shares.begin(), shares.end());
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (const auto& [key, share] : ordered) {
      const mitigation_level target = share >= config.block_theta   ? mitigation_level::blocked
                                      : share >= config.limit_theta ? mitigation_level::rate_limited
                                                                    : mitigation_level::none;
      if (target == mitigation_level::none) continue;
      const auto it = active.find(key);
      const mitigation_level current = it == active.end() ? mitigation_level::none : it->second;
      if (current == target || current == mitigation_level::blocked) continue;
      if (current == mitigation_level::none && active.size() >= config.max_rules) continue;
      active[key] = target;
      decisions.push_back({key, current, target});
    }
    return decisions;
  }
};

// Three policies evolve in lockstep over randomized snapshots - the oracle,
// the map overload, and the (prefix key, share) pair overload fed the map's
// entries in iteration order - and must emit the same transitions in the
// same order every round. Shares come from a small value set so ties are
// common, and a 5-rule table saturates.
TEST(MitigationPolicy, PairOverloadMatchesMapOverload) {
  const mitigation_config cfg{0.05, 0.02, 0.01, 5};
  const double levels[] = {0.0, 0.005, 0.01, 0.015, 0.02, 0.03, 0.05, 0.05, 0.08};
  xoshiro256 rng(0x1b);
  for (int trial = 0; trial < 20; ++trial) {
    map_policy_oracle oracle{cfg, {}};
    mitigation_policy by_map(cfg);
    mitigation_policy by_pairs(cfg);
    std::vector<std::pair<std::uint64_t, double>> pairs;
    std::vector<mitigation_decision> out;
    std::size_t saturated_rounds = 0;
    for (int round = 0; round < 60; ++round) {
      std::unordered_map<std::uint64_t, double> shares;
      const std::size_t present = rng.bounded(24);
      for (std::size_t i = 0; i < present; ++i) {
        const auto subnet = static_cast<std::uint32_t>(rng.bounded(32)) << 24;
        shares[prefix1d::make_key(subnet, 3)] = levels[rng.bounded(std::size(levels))];
      }
      pairs.assign(shares.begin(), shares.end());
      const auto expect = oracle.evaluate(shares);
      ASSERT_TRUE(same_decisions(by_map.evaluate(shares), expect))
          << "trial " << trial << " round " << round;
      by_pairs.evaluate(pairs, out);
      ASSERT_TRUE(same_decisions(out, expect)) << "trial " << trial << " round " << round;
      ASSERT_EQ(by_map.active_rules(), oracle.active.size());
      ASSERT_EQ(by_pairs.active_rules(), oracle.active.size());
      for (const auto& [key, share] : shares) {
        ASSERT_EQ(by_pairs.level_of(key), by_map.level_of(key));
      }
      saturated_rounds += by_map.active_rules() == cfg.max_rules ? 1 : 0;
    }
    EXPECT_GT(saturated_rounds, 0u) << "trial " << trial << " never filled the rule table";
  }
}

TEST(MitigationPolicy, PairOverloadReusesTheCallersBuffer) {
  mitigation_policy policy({0.05, 0.02, 0.01, 256});
  std::vector<std::pair<std::uint64_t, double>> pairs{
      {prefix1d::make_key(10u << 24, 3), 0.03}, {prefix1d::make_key(11u << 24, 3), 0.09}};
  std::vector<mitigation_decision> out(7);  // stale content is cleared
  policy.evaluate(pairs, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].prefix_key, prefix1d::make_key(11u << 24, 3));  // heaviest first
  EXPECT_EQ(out[0].to, mitigation_level::blocked);
  EXPECT_EQ(out[1].to, mitigation_level::rate_limited);
  pairs.clear();  // both subnets vanish: released
  policy.evaluate(pairs, out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(policy.active_rules(), 0u);
}

}  // namespace
}  // namespace memento::lb
