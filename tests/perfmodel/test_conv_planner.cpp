// Conv-planner unit tests: plan selection stays inside the exactness-safe
// family class, the persistent cache round-trips bitwise, any corrupted or
// stale file is discarded whole (with a replan, never a crash), and kOff
// reduces to the PR-1 heuristic.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "kernels/conv.hpp"
#include "perf/conv_planner.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"

namespace distconv::perf {
namespace {

using kernels::ConvAlgo;
using kernels::ConvParams;
using kernels::ConvPass;
using kernels::ConvPlan;

/// Fresh planner state per test: empty in-memory cache, no persistent file,
/// model mode, winograd off.
struct PlannerReset {
  static void reset() {
    set_conv_plan_cache_path("");
    clear_conv_plan_cache();
    set_conv_plan_mode(ConvPlanMode::kModel);
    set_conv_winograd_enabled(false);
  }
  PlannerReset() { reset(); }
  ~PlannerReset() { reset(); }
};

std::string temp_cache_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("dc_plan_cache_") + tag + ".txt"))
      .string();
}

ConvPlanKey key_of(ConvPass pass, std::int64_t c, std::int64_t f,
                   const ConvParams& p) {
  ConvPlanKey key;
  key.pass = pass;
  key.c = c;
  key.f = f;
  key.p = p;
  return key;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ConvPlanner, SelectionStaysInLegacyFamilyClass) {
  PlannerReset reset;
  // A shallow layer the heuristic runs direct: the planner must not cross
  // to a GEMM family (rank-sliced keys could disagree with the oracle's).
  const ConvParams shallow{3, 3, 1, 1, 1, 1};
  const ConvPlan direct_plan =
      conv_plan_for(ConvPass::kForward, shallow, /*c=*/2, /*f=*/4);
  EXPECT_EQ(direct_plan.algo, ConvAlgo::kDirect);

  // A deep 1×1 layer the heuristic runs im2col: gemm-strips is selectable
  // (bitwise equal), but implicit im2col has no lowering buffer left for it
  // to drop and runs one GEMM where gemm-strips launches one per strip, so
  // the model keeps im2col.
  const ConvParams one{1, 1, 1, 1, 0, 0};
  const ConvPlan gemm_plan =
      conv_plan_for(ConvPass::kForward, one, /*c=*/512, /*f=*/128);
  EXPECT_EQ(gemm_plan.algo, ConvAlgo::kIm2col);

  // A deep 3×3 layer stays in the im2col family while winograd is off…
  const ConvParams deep3{3, 3, 1, 1, 1, 1};
  EXPECT_EQ(conv_plan_for(ConvPass::kForward, deep3, 128, 128).algo,
            ConvAlgo::kIm2col);
}

TEST(ConvPlanner, WinogradRequiresOptIn) {
  PlannerReset reset;
  const ConvParams deep3{3, 3, 1, 1, 1, 1};
  set_conv_winograd_enabled(true);
  // With the opt-in, the forward candidate set includes winograd and the
  // model prefers its 16/36 multiply count on a deep square layer.
  const ConvPlan plan = conv_plan_for(ConvPass::kForward, deep3, 128, 128);
  EXPECT_EQ(plan.algo, ConvAlgo::kWinograd);
  // Backward passes have no winograd kernel: never proposed.
  EXPECT_NE(conv_plan_for(ConvPass::kBackwardData, deep3, 128, 128).algo,
            ConvAlgo::kWinograd);
  EXPECT_NE(conv_plan_for(ConvPass::kBackwardFilter, deep3, 128, 128).algo,
            ConvAlgo::kWinograd);
}

TEST(ConvPlanner, WinogradKnobAcceptsExactlyZeroOrOne) {
  EXPECT_FALSE(parse_conv_winograd(nullptr));
  EXPECT_FALSE(parse_conv_winograd(""));
  EXPECT_FALSE(parse_conv_winograd("0"));
  EXPECT_TRUE(parse_conv_winograd("1"));
  // Values that used to slip through the first-character test: "yes" left
  // winograd silently off and "10" turned it on.
  for (const char* bad : {"yes", "10", "01", "true", " 1", "1 ", "on", "-1"}) {
    try {
      parse_conv_winograd(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("DC_CONV_WINOGRAD"), std::string::npos) << what;
      EXPECT_NE(what.find("(0|1)"), std::string::npos) << what;
    }
  }
}

TEST(ConvPlanner, OffModeIsTheLegacyHeuristic) {
  PlannerReset reset;
  set_conv_plan_mode(ConvPlanMode::kOff);
  const ConvParams one{1, 1, 1, 1, 0, 0};
  const ConvPlan plan = conv_plan_for(ConvPass::kForward, one, 512, 128);
  EXPECT_EQ(plan.algo,
            kernels::resolve_conv_algo(ConvAlgo::kAuto, one, 512, 128));
  EXPECT_EQ(plan.strip_elems, 0);
  EXPECT_EQ(plan.thread_cap, 0);
  EXPECT_EQ(conv_plan_cache_size(), 0u);  // off mode touches no cache
}

TEST(ConvPlanner, CacheHitsAreStable) {
  PlannerReset reset;
  const ConvParams one{1, 1, 1, 1, 0, 0};
  const ConvPlan a = conv_plan_for(ConvPass::kBackwardFilter, one, 512, 128);
  const std::size_t after_first = conv_plan_cache_size();
  const ConvPlan b = conv_plan_for(ConvPass::kBackwardFilter, one, 512, 128);
  EXPECT_EQ(conv_plan_cache_size(), after_first);  // hit, no second entry
  EXPECT_EQ(a.algo, b.algo);
  EXPECT_EQ(a.strip_elems, b.strip_elems);
  EXPECT_EQ(a.thread_cap, b.thread_cap);
  EXPECT_EQ(a.numa_node, b.numa_node);
}

TEST(ConvPlanner, PersistentCacheRoundTrips) {
  PlannerReset reset;
  const std::string path = temp_cache_path("roundtrip");
  std::filesystem::remove(path);
  set_conv_plan_cache_path(path);

  const ConvParams one{1, 1, 1, 1, 0, 0};
  const ConvParams deep3{3, 3, 1, 1, 1, 1};
  const ConvPlan p1 = conv_plan_for(ConvPass::kForward, one, 512, 128);
  const ConvPlan p2 = conv_plan_for(ConvPass::kBackwardData, deep3, 64, 96);
  const ConvPlan p3 = conv_plan_for(ConvPass::kBackwardFilter, one, 512, 128);
  ASSERT_EQ(conv_plan_cache_size(), 3u);  // write-through saved each insert

  // A second planner life (same path): plans come back bitwise identical.
  clear_conv_plan_cache();
  EXPECT_EQ(conv_plan_cache_size(), 0u);
  const ConvPlan q1 = conv_plan_for(ConvPass::kForward, one, 512, 128);
  EXPECT_EQ(conv_plan_cache_size(), 3u);  // the file filled the whole cache
  const ConvPlan q2 = conv_plan_for(ConvPass::kBackwardData, deep3, 64, 96);
  const ConvPlan q3 = conv_plan_for(ConvPass::kBackwardFilter, one, 512, 128);
  for (const auto& [fresh, loaded] :
       {std::pair{p1, q1}, std::pair{p2, q2}, std::pair{p3, q3}}) {
    EXPECT_EQ(fresh.algo, loaded.algo);
    EXPECT_EQ(fresh.strip_elems, loaded.strip_elems);
    EXPECT_EQ(fresh.thread_cap, loaded.thread_cap);
    EXPECT_EQ(fresh.numa_node, loaded.numa_node);
  }
  std::filesystem::remove(path);
}

TEST(ConvPlanner, EverySingleBitFlipDiscardsTheFile) {
  PlannerReset reset;
  const std::string path = temp_cache_path("fuzz");
  std::filesystem::remove(path);
  set_conv_plan_cache_path(path);
  const ConvParams one{1, 1, 1, 1, 0, 0};
  const ConvParams deep3{3, 3, 1, 1, 1, 1};
  conv_plan_for(ConvPass::kForward, one, 512, 128);
  conv_plan_for(ConvPass::kBackwardData, deep3, 64, 96);

  std::string blob = read_file(path);
  ASSERT_FALSE(blob.empty());
  ASSERT_TRUE(load_conv_plan_cache(path));  // pristine file loads

  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    std::string corrupt = blob;
    corrupt[pos] ^= static_cast<char>(1u << (pos % 8));
    std::ofstream(path, std::ios::binary) << corrupt;
    EXPECT_FALSE(load_conv_plan_cache(path))
        << "bit flip at byte " << pos << " slipped through";
    EXPECT_EQ(conv_plan_cache_size(), 0u)
        << "partial load after flip at byte " << pos;
  }

  // Truncations (header cut, line cut, CRC cut) are all rejected too.
  // size-1 would only drop the trailing newline — equivalent content, and
  // accepted — so the shallowest cut removes a real CRC digit.
  for (std::size_t len : {blob.size() - 2, blob.size() / 2, std::size_t{3}}) {
    std::ofstream(path, std::ios::binary) << blob.substr(0, len);
    EXPECT_FALSE(load_conv_plan_cache(path)) << "truncation to " << len;
  }

  std::ofstream(path, std::ios::binary) << blob;
  EXPECT_TRUE(load_conv_plan_cache(path));  // restored file is pristine
  std::filesystem::remove(path);
}

TEST(ConvPlanner, StaleOrForeignEntriesInvalidateTheFile) {
  PlannerReset reset;
  const std::string path = temp_cache_path("stale");

  // A CRC-valid line whose plan its own key cannot execute (gemm-strips on
  // a 3×3 layer): validate-before-use must reject the file even though
  // every checksum passes.
  const std::string body =
      "fwd c=64 f=64 k=3x3 s=1x1 p=1x1 | algo=gemm-strips strips=0 cap=0 "
      "node=-1";
  char crc[24];
  std::snprintf(crc, sizeof(crc), " | crc=%08x",
                support::crc32(body.data(), body.size()));
  std::ofstream(path, std::ios::binary)
      << "distconv-conv-plan-cache-v1 mode=model\n"
      << body << crc << "\n";
  EXPECT_FALSE(load_conv_plan_cache(path));

  // A file written under a different planning mode is stale wholesale: its
  // plans may encode measured choices the current mode would not make.
  std::ofstream(path, std::ios::binary)
      << "distconv-conv-plan-cache-v1 mode=measure\n";
  EXPECT_FALSE(load_conv_plan_cache(path));

  // A cached key never shadows a different layer: planning a layer that is
  // not in the file misses and replans (the file only preloads its own key).
  const ConvParams one{1, 1, 1, 1, 0, 0};
  set_conv_plan_cache_path(path);
  conv_plan_for(ConvPass::kForward, one, 512, 128);
  clear_conv_plan_cache();
  conv_plan_for(ConvPass::kForward, one, 256, 64);  // different constants
  EXPECT_EQ(conv_plan_cache_size(), 2u);  // 1 loaded + 1 fresh miss
  std::filesystem::remove(path);
}

TEST(ConvPlanner, EnumerationPricesEveryApplicableFamily) {
  PlannerReset reset;
  const ConvParams one{1, 1, 1, 1, 0, 0};
  const auto cands =
      enumerate_conv_candidates(key_of(ConvPass::kForward, 512, 128, one));
  ASSERT_FALSE(cands.empty());
  bool has_direct = false, has_im2col = false, has_strips = false;
  for (const auto& c : cands) {
    has_direct = has_direct || c.plan.algo == ConvAlgo::kDirect;
    has_im2col = has_im2col || c.plan.algo == ConvAlgo::kIm2col;
    has_strips = has_strips || c.plan.algo == ConvAlgo::kGemmStrips;
    EXPECT_GT(c.model_seconds, 0.0);
  }
  EXPECT_TRUE(has_direct);
  EXPECT_TRUE(has_im2col);
  EXPECT_TRUE(has_strips);
  // Best-first ordering.
  for (std::size_t i = 1; i < cands.size(); ++i) {
    EXPECT_LE(cands[i - 1].model_seconds, cands[i].model_seconds);
  }
}

TEST(ConvPlanner, KeyStringIsStable) {
  const ConvParams p{3, 5, 2, 1, 1, 2};
  EXPECT_EQ(key_of(ConvPass::kBackwardData, 96, 32, p).str(),
            "bwd-data c=96 f=32 k=3x5 s=2x1 p=1x2");
}

}  // namespace
}  // namespace distconv::perf
