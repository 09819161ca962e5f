/** @file Unit tests for the bin hash table. */

#include <gtest/gtest.h>

#include <new>
#include <vector>

#include "support/failpoint.hh"
#include "threads/hash_table.hh"

namespace
{

using namespace lsched::threads;

BlockCoords
coords(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0)
{
    BlockCoords k{};
    k[0] = a;
    k[1] = b;
    k[2] = c;
    return k;
}

TEST(BinTable, CreateOnFirstUse)
{
    BinTable t(3, 16);
    auto [bin, created] = t.findOrCreate(coords(1, 2, 3));
    EXPECT_TRUE(created);
    EXPECT_NE(bin, nullptr);
    EXPECT_EQ(t.binCount(), 1u);
}

TEST(BinTable, SameCoordsSameBin)
{
    BinTable t(3, 16);
    Bin *a = t.findOrCreate(coords(1, 2, 3)).first;
    auto [b, created] = t.findOrCreate(coords(1, 2, 3));
    EXPECT_FALSE(created);
    EXPECT_EQ(a, b);
    EXPECT_EQ(t.binCount(), 1u);
}

TEST(BinTable, DifferentCoordsDifferentBins)
{
    BinTable t(3, 16);
    Bin *a = t.findOrCreate(coords(1, 2, 3)).first;
    Bin *b = t.findOrCreate(coords(3, 2, 1)).first;
    EXPECT_NE(a, b);
    EXPECT_EQ(t.binCount(), 2u);
}

TEST(BinTable, FindWithoutCreating)
{
    BinTable t(3, 16);
    EXPECT_EQ(t.find(coords(9)), nullptr);
    Bin *a = t.findOrCreate(coords(9)).first;
    EXPECT_EQ(t.find(coords(9)), a);
    EXPECT_EQ(t.binCount(), 1u);
}

TEST(BinTable, CollisionsChainCorrectly)
{
    // A deliberately undersized table must keep lookups resolving by
    // full coordinates while it grows; probe sequences stay short
    // because growth holds the load under 3/4.
    BinTable t(3, 1);
    std::vector<Bin *> bins;
    for (std::uint64_t i = 0; i < 50; ++i)
        bins.push_back(t.findOrCreate(coords(i, i * 7, i * 13)).first);
    EXPECT_EQ(t.binCount(), 50u);
    EXPECT_GE(t.bucketCount(), 64u);
    EXPECT_LE(t.maxChainLength(), 16u);
    for (std::uint64_t i = 0; i < 50; ++i)
        EXPECT_EQ(t.find(coords(i, i * 7, i * 13)), bins[i]);
}

TEST(BinTable, BucketCountRoundsUpToPowerOfTwo)
{
    BinTable t(3, 100);
    EXPECT_EQ(t.bucketCount(), 128u);
}

TEST(BinTable, LargerTableSpreadsChains)
{
    BinTable big(3, 4096);
    for (std::uint64_t i = 0; i < 1000; ++i)
        big.findOrCreate(coords(i, i + 1, i + 2));
    // With decent hashing, 1000 bins over 4096 slots should probe
    // only a handful deep.
    EXPECT_LE(big.maxChainLength(), 32u);
}

TEST(BinTable, ClearDropsBins)
{
    BinTable t(3, 16);
    t.findOrCreate(coords(1));
    t.clear();
    EXPECT_EQ(t.binCount(), 0u);
    EXPECT_EQ(t.find(coords(1)), nullptr);
}

TEST(BinTable, StableBinAddresses)
{
    // Bins must not move when more bins are created (groups and the
    // ready list hold raw pointers).
    BinTable t(3, 4);
    Bin *first = t.findOrCreate(coords(0)).first;
    first->threadCount = 42;
    for (std::uint64_t i = 1; i < 2000; ++i)
        t.findOrCreate(coords(i, i, i));
    EXPECT_EQ(t.find(coords(0)), first);
    EXPECT_EQ(first->threadCount, 42u);
}

TEST(BinTable, DimsLimitComparison)
{
    // With dims == 1 only the first coordinate identifies a bin.
    BinTable t(1, 16);
    Bin *a = t.findOrCreate(coords(5, 1, 1)).first;
    Bin *b = t.findOrCreate(coords(5, 2, 2)).first;
    EXPECT_EQ(a, b);
}

TEST(BinTable, FailedGrowthLeavesEveryBinFindable)
{
    namespace fp = lsched::failpoint;
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    // 16 slots: creations 1..12 each evaluate the creation-path
    // "bintable.grow" site once; the 12th reaches the 3/4 load limit,
    // so it grows first and evaluates the growth-path site as hit 13.
    BinTable t(3, 16);
    std::vector<Bin *> bins;
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("bintable.grow", "hit=13"));
    for (std::uint64_t i = 0; i < 11; ++i)
        bins.push_back(t.findOrCreate(coords(i, i + 1)).first);
    EXPECT_THROW(t.findOrCreate(coords(11, 12)), std::bad_alloc);
    fp::disarmAll();

    // Nothing was linked and the slot array is the old one.
    EXPECT_EQ(t.binCount(), 11u);
    EXPECT_EQ(t.bucketCount(), 16u);
    EXPECT_EQ(t.find(coords(11, 12)), nullptr);
    for (std::uint64_t i = 0; i < 11; ++i)
        EXPECT_EQ(t.find(coords(i, i + 1)), bins[i]);

    // The next insert grows for real and succeeds.
    auto [bin, created] = t.findOrCreate(coords(11, 12));
    EXPECT_TRUE(created);
    EXPECT_EQ(t.binCount(), 12u);
    EXPECT_EQ(t.bucketCount(), 32u);
    for (std::uint64_t i = 0; i < 11; ++i)
        EXPECT_EQ(t.find(coords(i, i + 1)), bins[i]);
    EXPECT_EQ(t.find(coords(11, 12)), bin);
}

} // namespace
