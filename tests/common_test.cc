// Unit tests for src/common: Status/Result, Rng (including distributional
// properties), vector/matrix kernels, string utilities, the byte codec and
// the table writer.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/vec.h"

namespace retina {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, AllCodesRender) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NotFound: x");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OutOfRange: x");
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FailedPrecondition: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "Internal: x");
  EXPECT_EQ(Status::IOError("x").ToString(), "IOError: x");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "hello");
}

Status FailingHelper() { return Status::Internal("inner"); }
Status PropagatingHelper() {
  RETINA_RETURN_NOT_OK(FailingHelper());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(PropagatingHelper().code(), StatusCode::kInternal);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(7);
  double acc = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) acc += rng.Uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(17);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.Exponential(4.0);
  EXPECT_NEAR(acc / n, 0.25, 0.01);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(19);
  for (double shape : {0.5, 1.0, 3.0, 9.0}) {
    double acc = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) acc += rng.Gamma(shape);
    EXPECT_NEAR(acc / n, shape, shape * 0.05) << "shape=" << shape;
  }
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(23);
  for (double mean : {0.5, 3.0, 50.0}) {
    double acc = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) acc += rng.Poisson(mean);
    EXPECT_NEAR(acc / n, mean, std::max(0.05, mean * 0.05)) << mean;
  }
}

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(37);
  std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, CategoricalAllZeroWeightsReturnsLast) {
  Rng rng(41);
  std::vector<double> w = {0.0, 0.0, 0.0};
  EXPECT_EQ(rng.Categorical(w), 2u);
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> p = rng.Dirichlet(8, 0.3);
    double total = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(RngTest, DirichletSymmetricMean) {
  Rng rng(47);
  std::vector<double> mean(4, 0.0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto p = rng.Dirichlet(4, 1.0);
    for (size_t j = 0; j < 4; ++j) mean[j] += p[j];
  }
  for (size_t j = 0; j < 4; ++j) EXPECT_NEAR(mean[j] / n, 0.25, 0.01);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(53);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(59);
  const auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::vector<size_t> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleWithoutReplacementAllWhenKGeqN) {
  Rng rng(61);
  const auto sample = rng.SampleWithoutReplacement(5, 10);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(RngTest, SplitStreamsAreIndependentOfParentDraws) {
  // Child stream depends only on (seed, split ordinal), not on how many
  // variates the parent drew in between.
  Rng a(99);
  Rng b(99);
  (void)a.NextU64();
  (void)a.Uniform();
  Rng child_a = a.Split();
  Rng child_b = b.Split();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(child_a.NextU64(), child_b.NextU64());
  }
}

TEST(RngTest, SuccessiveSplitsDiffer) {
  Rng rng(99);
  Rng c1 = rng.Split();
  Rng c2 = rng.Split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1.NextU64() == c2.NextU64());
  EXPECT_LT(same, 2);
}

// ------------------------------------------------------------------- Vec --

TEST(VecTest, DotAndNorm) {
  Vec a = {1.0, 2.0, 3.0}, b = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(Norm2({3.0, 4.0}), 5.0);
}

TEST(VecTest, AxpyScaleSumMean) {
  Vec y = {1.0, 1.0};
  Axpy(2.0, {1.0, 3.0}, &y);
  EXPECT_EQ(y, (Vec{3.0, 7.0}));
  Scale(0.5, &y);
  EXPECT_EQ(y, (Vec{1.5, 3.5}));
  EXPECT_DOUBLE_EQ(Sum(y), 5.0);
  EXPECT_DOUBLE_EQ(Mean(y), 2.5);
}

TEST(VecTest, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
}

TEST(VecTest, VarianceMatchesDefinition) {
  EXPECT_NEAR(Variance({1.0, 2.0, 3.0, 4.0}), 1.25, 1e-12);
}

// Pins the documented contract: population variance (divide by n, not
// n-1), and 0 for vectors with fewer than two elements.
TEST(VecTest, VarianceIsPopulationVariance) {
  EXPECT_NEAR(Variance({2.0, 4.0}), 1.0, 1e-12);       // sample var would be 2
  EXPECT_NEAR(Variance({5.0, 5.0, 5.0}), 0.0, 1e-12);  // constant vector
  EXPECT_DOUBLE_EQ(Variance({7.5}), 0.0);              // singleton
}

TEST(VecTest, CosineSimilarity) {
  EXPECT_NEAR(CosineSimilarity({1, 0}, {0, 1}), 0.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity({1, 1}, {2, 2}), 1.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity({1, 0}, {-1, 0}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {1, 2}), 0.0);
}

TEST(VecTest, SoftmaxSumsToOneAndIsStable) {
  Vec v = {1000.0, 1001.0, 1002.0};  // would overflow naive exp
  SoftmaxInPlace(v.data(), v.size());
  EXPECT_NEAR(Sum(v), 1.0, 1e-12);
  EXPECT_GT(v[2], v[1]);
  EXPECT_GT(v[1], v[0]);
}

TEST(VecTest, SigmoidBoundsAndSymmetry) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(Sigmoid(5.0) + Sigmoid(-5.0), 1.0, 1e-12);
  EXPECT_GE(Sigmoid(-1000.0), 0.0);
  EXPECT_LE(Sigmoid(1000.0), 1.0);
}

TEST(VecTest, AddSubConcat) {
  EXPECT_EQ(Add({1, 2}, {3, 4}), (Vec{4, 6}));
  EXPECT_EQ(Sub({3, 4}, {1, 2}), (Vec{2, 2}));
  EXPECT_EQ(Concat({1}, {2, 3}), (Vec{1, 2, 3}));
}

// ---------------------------------------------------------------- Matrix --

TEST(MatrixTest, IndexingAndRows) {
  Matrix m(2, 3);
  m(0, 0) = 1.0;
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  m.SetRow(0, {7, 8, 9});
  EXPECT_EQ(m.RowVec(0), (Vec{7, 8, 9}));
}

TEST(MatrixTest, MatVec) {
  Matrix m(2, 3);
  m.SetRow(0, {1, 2, 3});
  m.SetRow(1, {4, 5, 6});
  EXPECT_EQ(m.MatVec({1, 1, 1}), (Vec{6, 15}));
}

TEST(MatrixTest, TransposeMatVecMatchesExplicitTranspose) {
  Matrix m(2, 3);
  m.SetRow(0, {1, 2, 3});
  m.SetRow(1, {4, 5, 6});
  const Vec direct = m.TransposeMatVec({1.0, 2.0});
  const Vec via_t = m.Transpose().MatVec({1.0, 2.0});
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(direct[i], via_t[i], 1e-12);
}

TEST(MatrixTest, MatMul) {
  Matrix a(2, 2), b(2, 2);
  a.SetRow(0, {1, 2});
  a.SetRow(1, {3, 4});
  b.SetRow(0, {5, 6});
  b.SetRow(1, {7, 8});
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, AxpyAndFill) {
  Matrix a(1, 2, 1.0), b(1, 2, 2.0);
  a.Axpy(3.0, b);
  EXPECT_DOUBLE_EQ(a(0, 0), 7.0);
  a.Fill(0.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
}

TEST(MatrixTest, StorageStartsOnACacheLine) {
  // Small and large blocks alike, interleaved with odd-sized ones that
  // would leave malloc's next block off a cache line; copies too.
  std::vector<Matrix> kept;
  std::vector<std::vector<char>> pads;
  for (size_t cols : {1, 3, 64, 876, 70000}) {
    pads.emplace_back(8 * cols + 24);
    kept.emplace_back(2, cols);
    const Matrix copy = kept.back();
    kept.push_back(copy);
  }
  for (const Matrix& m : kept) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data().data()) % 64, 0u);
  }
}

// --------------------------------------------------------------- Strings --

TEST(StringTest, Split) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringTest, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  a\tb \n c "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringTest, JoinLowerTrim) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(ToLower("AbC#9"), "abc#9");
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringTest, StartsWithAndFormat) {
  EXPECT_TRUE(StartsWith("https://x", "https://"));
  EXPECT_FALSE(StartsWith("ftp://x", "https://"));
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(0.5, 0), "0");
}

TEST(StringTest, ParseNumberFlagIsStrict) {
  size_t n = 7;
  EXPECT_TRUE(ParseNumberFlag("--n", "256", size_t{1}, size_t{256}, &n).ok());
  EXPECT_EQ(n, 256u);
  for (const char* bad : {"", "-1", "+3", " 3", "3 ", "3x", "0x10", "abc",
                          "257", "0", "99999999999999999999999"}) {
    const Status st = ParseNumberFlag("--n", bad, size_t{1}, size_t{256}, &n);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "'" << bad << "'";
  }
  EXPECT_EQ(n, 256u);  // untouched by every rejection
  EXPECT_EQ(ParseNumberFlag("--n", "abc", size_t{1}, size_t{256}, &n)
                .ToString(),
            "InvalidArgument: --n wants an integer in [1, 256], got 'abc'");

  double d = 0.0;
  EXPECT_TRUE(ParseNumberFlag("--d", "1.5", 0.0, 2.0, &d).ok());
  EXPECT_EQ(d, 1.5);
  EXPECT_TRUE(ParseNumberFlag("--d", "2e-1", 0.0, 2.0, &d).ok());
  EXPECT_EQ(d, 0.2);
  for (const char* bad : {"", "-0.5", "2.5", "nan", "inf", "1.5s", " 1"}) {
    EXPECT_FALSE(ParseNumberFlag("--d", bad, 0.0, 2.0, &d).ok()) << bad;
  }
}

// ----------------------------------------------------------------- Bytes --

TEST(BytesTest, PutWritesLittleEndianAndReaderReadsItBack) {
  std::string out;
  PutU8(&out, 0x7F);
  PutU16(&out, 0x0102);
  PutU32(&out, 0x01020304u);
  PutU64(&out, 0x0102030405060708ull);
  PutI64(&out, -2);
  PutF64(&out, -0.0);
  EXPECT_EQ(out.substr(0, 7), std::string("\x7F\x02\x01\x04\x03\x02\x01", 7));
  EXPECT_EQ(LoadLe64(out.data() + 7), 0x0102030405060708ull);

  ByteReader in(out);
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double f64 = 1.0;
  ASSERT_TRUE(in.ReadU8(&u8) && in.ReadU16(&u16) && in.ReadU32(&u32) &&
              in.ReadU64(&u64) && in.ReadI64(&i64) && in.ReadF64(&f64));
  EXPECT_EQ(u8, 0x7F);
  EXPECT_EQ(u16, 0x0102);
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(u64, 0x0102030405060708ull);
  EXPECT_EQ(i64, -2);
  EXPECT_TRUE(std::signbit(f64));
  EXPECT_TRUE(in.AtEnd());
}

TEST(BytesTest, ReadAtOrPastTheEndFailsAndKeepsThePosition) {
  ByteReader in(std::string_view("abc", 3));
  uint32_t u32 = 7;
  EXPECT_FALSE(in.ReadU32(&u32));
  EXPECT_EQ(in.pos(), 0u);
  EXPECT_EQ(u32, 7u);
  uint16_t u16 = 0;
  ASSERT_TRUE(in.ReadU16(&u16));
  EXPECT_FALSE(in.ReadU16(&u16));
  EXPECT_EQ(in.pos(), 2u);
  std::string bytes;
  EXPECT_FALSE(in.ReadBytes(2, &bytes));
  EXPECT_EQ(in.pos(), 2u);
  ASSERT_TRUE(in.ReadBytes(1, &bytes));
  EXPECT_EQ(bytes, "c");
  EXPECT_TRUE(in.AtEnd());
  uint8_t u8 = 0;
  EXPECT_FALSE(in.ReadU8(&u8));
  EXPECT_FALSE(in.ReadBytes(UINT64_MAX, &bytes));
  EXPECT_EQ(in.pos(), 3u);
  EXPECT_TRUE(in.ReadBytes(0, &bytes));
  EXPECT_EQ(bytes, "");
}

TEST(BytesTest, FitsRejectsCountsWhoseByteSizeOverflows) {
  const std::string sixteen(16, '\0');
  ByteReader in(sixteen);
  EXPECT_TRUE(in.Fits(2, 8));
  EXPECT_FALSE(in.Fits(3, 8));
  // 2^61 * 8 and 2^62 * 4 wrap to 0 in 64 bits; neither fits.
  EXPECT_FALSE(in.Fits(uint64_t{1} << 61, 8));
  EXPECT_FALSE(in.Fits(uint64_t{1} << 62, 4));
  EXPECT_FALSE(in.Fits(UINT64_MAX, 2));
  EXPECT_TRUE(in.Fits(UINT64_MAX, 0));
}

TEST(BytesTest, Fnv1a64MatchesThePublishedVectors) {
  EXPECT_EQ(Fnv1a64("a", 1, kFnv1a64Basis), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("", 0, kFnv1a64Basis), kFnv1a64Basis);
  // A hash continues from the previous one.
  EXPECT_EQ(Fnv1a64("b", 1, Fnv1a64("a", 1, kFnv1a64Basis)),
            Fnv1a64("ab", 2, kFnv1a64Basis));
}

TEST(BytesTest, AtomicFilePublishesOnlyOnCommit) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("retina_bytes_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove(path);
  {
    AtomicFile file;
    ASSERT_TRUE(file.Open(path).ok());
    ASSERT_TRUE(file.Append("abandoned").ok());
    EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
    EXPECT_FALSE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(path));

  AtomicFile file;
  ASSERT_TRUE(file.Open(path).ok());
  ASSERT_TRUE(file.Append("he").ok());
  ASSERT_TRUE(file.Append("llo").ok());
  ASSERT_TRUE(file.Commit().ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::string read;
  ASSERT_TRUE(ReadFileToString(path, &read).ok());
  EXPECT_EQ(read, "hello");

  ASSERT_TRUE(AtomicFile::Write(path, "over").ok());
  ASSERT_TRUE(ReadFileToString(path, &read).ok());
  EXPECT_EQ(read, "over");
  std::filesystem::remove(path);
  EXPECT_EQ(ReadFileToString(path, &read).code(), StatusCode::kIOError);
  EXPECT_FALSE(AtomicFile::Write("/nonexistent/retina/x", "y").ok());
}

// --------------------------------------------------------------- Logging --

TEST(LoggingTest, LevelFilterRoundTrip) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Suppressed and emitted messages must both be safe to construct.
  RETINA_LOG(Debug) << "suppressed " << 42;
  RETINA_LOG(Error) << "emitted " << 3.14;
  SetLogLevel(original);
}

TEST(LoggingTest, ParseLogLevelAcceptsKnownNamesOnly) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("info", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel("INFO", &level));
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kInfo);  // untouched on failure
}

TEST(LoggingTest, JsonSinkEmitsOneEscapedObjectPerLine) {
  const bool original_json = JsonLogging();
  SetJsonLogging(true);
  testing::internal::CaptureStderr();
  RETINA_LOG(Error) << "quote \" backslash \\ and\nnewline";
  const std::string line = testing::internal::GetCapturedStderr();
  SetJsonLogging(original_json);

  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '\n');
  EXPECT_NE(line.find("\"level\":\"ERROR\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"line\":"), std::string::npos);
  EXPECT_NE(line.find("common_test.cc"), std::string::npos);
  // No ambient trace session: the id joins as 0.
  EXPECT_NE(line.find("\"trace_id\":0"), std::string::npos) << line;
  EXPECT_NE(line.find("quote \\\" backslash \\\\ and\\u000anewline"),
            std::string::npos)
      << line;
  // Exactly one line: the embedded newline was escaped, not emitted.
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1) << line;
}

// ------------------------------------------------------------- Stopwatch --

TEST(StopwatchTest, MeasuresElapsedAndResets) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink += static_cast<double>(i);
  const double first = sw.ElapsedSeconds();
  EXPECT_GT(first, 0.0);
  EXPECT_EQ(sw.ElapsedMillis() >= first * 1e3, true);
  sw.Reset();
  EXPECT_LE(sw.ElapsedSeconds(), first + 1.0);
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, RendersAlignedRows) {
  TableWriter t("Title", {"model", "f1"});
  t.AddRow({"DT", "0.65"});
  t.AddRow({"LongerName", "0.5"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("| DT"), std::string::npos);
  EXPECT_NE(out.find("LongerName"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

}  // namespace
}  // namespace retina
