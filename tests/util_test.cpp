// Unit tests for the util module: deterministic RNG, combinatorial
// enumerators, and formatting helpers.

#include <gtest/gtest.h>

#include <set>

#include "util/check.h"
#include "util/combinatorics.h"
#include "util/format.h"
#include "util/hash.h"
#include "util/rng.h"

namespace shlcp {
namespace {

TEST(CheckTest, ThrowsWithMessage) {
  try {
    SHLCP_CHECK_MSG(1 == 2, "math broke");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(CheckTest, PassesSilently) {
  EXPECT_NO_THROW(SHLCP_CHECK(2 + 2 == 4));
}

TEST(HashTest, Fnv1a64MatchesTheStandardVectors) {
  // The published 64-bit FNV-1a test vectors.
  static_assert(fnv1a64("") == 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
  // Bytes >= 0x80 hash as unsigned, whatever the signedness of char.
  EXPECT_EQ(fnv1a64("\xff"), 0xaf64724c8602eb6eULL);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.next_u64() != b.next_u64()) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 0);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.next_below(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    const int x = rng.next_int(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    saw_lo = saw_lo || (x == -2);
    saw_hi = saw_hi || (x == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, RandomPermutationIsPermutation) {
  Rng rng(11);
  const auto p = random_permutation(8, rng);
  std::set<int> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(CombinatoricsTest, PermutationCount) {
  int count = 0;
  for_each_permutation(4, [&](const std::vector<int>&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 24);
}

TEST(CombinatoricsTest, PermutationEarlyStop) {
  int count = 0;
  const bool complete = for_each_permutation(4, [&](const std::vector<int>&) {
    ++count;
    return count < 5;
  });
  EXPECT_FALSE(complete);
  EXPECT_EQ(count, 5);
}

TEST(CombinatoricsTest, ProductCount) {
  int count = 0;
  for_each_product({2, 3, 4}, [&](const std::vector<int>&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 24);
}

TEST(CombinatoricsTest, ProductEmpty) {
  int count = 0;
  for_each_product({}, [&](const std::vector<int>& digits) {
    EXPECT_TRUE(digits.empty());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
}

TEST(CombinatoricsTest, ProductDigitsValid) {
  for_each_product({3, 2}, [&](const std::vector<int>& d) {
    EXPECT_LT(d[0], 3);
    EXPECT_LT(d[1], 2);
    return true;
  });
}

TEST(CombinatoricsTest, SubsetCount) {
  int count = 0;
  for_each_subset(6, 3, [&](const std::vector<int>& s) {
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    ++count;
    return true;
  });
  EXPECT_EQ(count, 20);
}

TEST(CombinatoricsTest, SubsetAnySizeCount) {
  int count = 0;
  for_each_subset_any_size(5, [&](const std::vector<int>&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 32);
}

TEST(CombinatoricsTest, Factorial) {
  EXPECT_EQ(factorial(0), 1u);
  EXPECT_EQ(factorial(5), 120u);
  EXPECT_EQ(factorial(12), 479001600u);
}

TEST(CombinatoricsTest, Binomial) {
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(10, 5), 252u);
  EXPECT_EQ(binomial(4, 7), 0u);
}

TEST(CombinatoricsTest, AllPermutationsMaterialized) {
  const auto perms = all_permutations(3);
  EXPECT_EQ(perms.size(), 6u);
  EXPECT_EQ(perms.front(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(perms.back(), (std::vector<int>{2, 1, 0}));
}

TEST(FormatTest, Printf) {
  EXPECT_EQ(format("x=%d y=%s", 3, "hi"), "x=3 y=hi");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(FormatTest, Join) {
  EXPECT_EQ(join(std::vector<int>{1, 2, 3}, ", "), "1, 2, 3");
  EXPECT_EQ(join(std::vector<int>{}, ", "), "");
}

TEST(FormatTest, ShowVec) {
  EXPECT_EQ(show_vec({4, 5}), "[4, 5]");
}

}  // namespace
}  // namespace shlcp
