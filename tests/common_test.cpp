#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace heterog {
namespace {

TEST(Check, PassesOnTrue) { EXPECT_NO_THROW(check(true, "fine")); }

TEST(Check, ThrowsOnFalseWithLocation) {
  try {
    check(false, "broken invariant");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("broken invariant"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("common_test.cpp"), std::string::npos);
  }
}

TEST(Check, LazyMessageOnlyBuiltOnFailure) {
  int calls = 0;
  check_lazy(true, [&] {
    ++calls;
    return std::string("never");
  });
  EXPECT_EQ(calls, 0);
  EXPECT_THROW(check_lazy(false,
                          [&] {
                            ++calls;
                            return std::string("msg");
                          }),
               CheckError);
  EXPECT_EQ(calls, 1);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng a(5);
  Rng child1 = a.fork(1);
  Rng a2(5);
  Rng child2 = a2.fork(1);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(child1.uniform(), child2.uniform());
}

TEST(Rng, SampleWeightedRespectsWeights) {
  Rng rng(11);
  std::vector<double> w = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.sample_weighted(w), 1);
}

TEST(Rng, SampleWeightedRejectsAllZero) {
  Rng rng(11);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(rng.sample_weighted(w), CheckError);
}

TEST(Rng, SampleWeightedRoughProportions) {
  Rng rng(13);
  std::vector<double> w = {1.0, 3.0};
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ones += rng.sample_weighted(w);
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y;
  for (double v : x) y.push_back(2.5 * v + 1.0);
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.5, 1e-9);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
  EXPECT_NEAR(fit.predict(10.0), 26.0, 1e-9);
}

TEST(Stats, LinearFitDegenerateX) {
  std::vector<double> x = {2, 2, 2};
  std::vector<double> y = {1, 2, 3};
  const LinearFit fit = fit_linear(x, y);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-9);
}

TEST(Stats, MeanMedianStddevPercentile) {
  std::vector<double> v = {1, 2, 3, 4, 100};
  EXPECT_DOUBLE_EQ(mean(v), 22.0);
  EXPECT_DOUBLE_EQ(median(v), 3.0);
  EXPECT_GT(stddev(v), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 100.0);
}

TEST(Stats, MovingAverageConverges) {
  MovingAverage avg(0.5);
  avg.update(10.0);
  EXPECT_DOUBLE_EQ(avg.value(), 10.0);
  avg.update(0.0);
  EXPECT_DOUBLE_EQ(avg.value(), 5.0);
}

TEST(Table, RendersAlignedRows) {
  TextTable t({"Model", "Time"});
  t.add_row({"VGG-19", "0.462"});
  t.add_row({"ResNet200-long-name", "1.431"});
  const std::string out = t.render();
  EXPECT_NE(out.find("VGG-19"), std::string::npos);
  EXPECT_NE(out.find("ResNet200-long-name"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  TextTable t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_double(0.4615, 3), "0.462");
  EXPECT_EQ(fmt_percent(0.963, 1), "96.3%");
  EXPECT_EQ(fmt_bytes(1536), "1.50 KB");
}

TEST(Json, ParsesEveryValueKind) {
  const json::Value v = json::parse(
      " {\"a\": [1, -2.5e3, true, false, null], \"s\": \"x\\u00e9\\ud83d\\ude00\\/\","
      " \"o\": {}}\r\n");
  ASSERT_EQ(v.type, json::Value::Type::kObject);
  const json::Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 5u);
  EXPECT_EQ(a->array[1].type, json::Value::Type::kNumber);
  EXPECT_EQ(a->array[1].number, -2500.0);
  EXPECT_EQ(a->array[1].text, "-2.5e3");  // the source lexeme is kept
  EXPECT_TRUE(a->array[2].boolean);
  EXPECT_EQ(a->array[3].type, json::Value::Type::kBool);
  EXPECT_EQ(a->array[4].type, json::Value::Type::kNull);
  EXPECT_EQ(v.find("s")->text, "x\xc3\xa9\xf0\x9f\x98\x80/");
  EXPECT_EQ(v.find("o")->type, json::Value::Type::kObject);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(json::parse(R"({"k": 1, "k": 2})").find("k")->number, 2.0);  // last wins
}

TEST(Json, RejectsWithReasonAndOffset) {
  struct Case {
    std::string text;
    size_t offset;
  };
  const std::vector<Case> cases = {
      {"", 0},          {"[1, 02]", 4},    {"[1-2]", 1},         {"3e", 0},
      {"-", 0},         {"1.", 0},         {".5", 0},            {"+1", 0},
      {"[1,]", 3},      {"{\"a\" 1}", 5},  {"{1: 2}", 1},        {"\"a\tb\"", 2},
      {"\"\\x\"", 2},   {"\"\\u12\"", 3},  {"\"\\ud800\"", 7},   {"\"\\ude00\"", 7},
      {"[1] x", 4},     {"1e400", 0},      {"tru", 0},           {"\v1", 0},
      {"\"open", 5},    {"[1 2]", 3},      {"NaN", 0},           {"Infinity", 0},
  };
  for (const Case& c : cases) {
    try {
      (void)json::parse(c.text);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const json::ParseError& e) {
      EXPECT_EQ(e.offset(), c.offset) << c.text << ": " << e.what();
      EXPECT_FALSE(e.reason().empty());
      EXPECT_EQ(std::string(e.what()),
                e.reason() + " (at offset " + std::to_string(c.offset) + ")");
    }
  }
}

TEST(Json, DepthCapIsTyped) {
  const auto nested = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)json::parse(nested(json::kMaxDepth)));
  try {
    (void)json::parse(nested(json::kMaxDepth + 1));
    ADD_FAILURE() << "nesting past the cap accepted";
  } catch (const json::ParseError& e) {
    EXPECT_EQ(e.reason(), "nesting too deep");
    EXPECT_EQ(e.offset(), static_cast<size_t>(json::kMaxDepth));
  }
}

TEST(Json, QuotedRoundTripsEveryByte) {
  EXPECT_EQ(json::quoted("a\"b\\c\n\r\t\x01/"), R"("a\"b\\c\n\r\t\u0001/")");
  std::string every_byte;
  for (int c = 0; c < 256; ++c) every_byte += static_cast<char>(c);
  EXPECT_EQ(json::parse(json::quoted(every_byte)).text, every_byte);
}

TEST(Json, NumberWriters) {
  EXPECT_EQ(json::number_exact(0.1), "0.10000000000000001");
  EXPECT_EQ(json::number_shortest(0.1), "0.1");
  EXPECT_EQ(json::number_shortest(100000000.0), "1e+08");
  EXPECT_EQ(json::number_shortest(-0.5), "-0.5");
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(json::number_exact(bad), "null");
    EXPECT_EQ(json::number_shortest(bad), "null");
  }
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double v = std::ldexp(rng.uniform() - 0.5, rng.uniform_int(-1070, 1020));
    EXPECT_EQ(json::parse(json::number_exact(v)).number, v);
    EXPECT_EQ(json::parse(json::number_shortest(v)).number, v);
  }
}

}  // namespace
}  // namespace heterog
