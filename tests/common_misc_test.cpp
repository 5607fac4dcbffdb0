// Tests for status/result, hashing, env knobs and table printing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "common/env.h"
#include "common/hash.h"
#include "common/status.h"
#include "common/table_printer.h"

namespace upa {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad n");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad n");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad n");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kUnsupported, StatusCode::kFailedPrecondition,
        StatusCode::kOutOfRange, StatusCode::kInternal}) {
    EXPECT_FALSE(StatusCodeName(c).empty());
    EXPECT_NE(StatusCodeName(c), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(HashTest, Mix64ChangesNearbyKeys) {
  std::set<uint64_t> outputs;
  for (uint64_t k = 0; k < 1000; ++k) outputs.insert(Mix64(k));
  EXPECT_EQ(outputs.size(), 1000u);  // no collisions on sequential keys
}

TEST(HashTest, Mix64IsDeterministic) {
  EXPECT_EQ(Mix64(12345), Mix64(12345));
  EXPECT_NE(Mix64(12345), Mix64(12346));
}

TEST(HashTest, HashCombineOrderMatters) {
  size_t ab = HashCombine(HashCombine(0, 1), 2);
  size_t ba = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(ab, ba);
}

TEST(HashTest, Fnv1aKnownBehaviour) {
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(Fnv1a("a"), Fnv1a("b"));
  EXPECT_EQ(Fnv1a("upa"), Fnv1a("upa"));
}

TEST(EnvTest, IntFallbackAndParse) {
  ::unsetenv("UPA_TEST_INT");
  EXPECT_EQ(EnvInt("UPA_TEST_INT", 7), 7);
  ::setenv("UPA_TEST_INT", "123", 1);
  EXPECT_EQ(EnvInt("UPA_TEST_INT", 7), 123);
  ::setenv("UPA_TEST_INT", "junk", 1);
  EXPECT_EQ(EnvInt("UPA_TEST_INT", 7), 7);
  ::unsetenv("UPA_TEST_INT");
}

TEST(TablePrinterTest, AlignedOutputContainsCells) {
  TablePrinter t({"query", "rmse"});
  t.AddRow({"TPCH1", "0.0001"});
  t.AddRow({"KMeans", "3.81"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("TPCH1"), std::string::npos);
  EXPECT_NE(s.find("KMeans"), std::string::npos);
  EXPECT_NE(s.find("query"), std::string::npos);
}

TEST(TablePrinterTest, CsvQuotesSpecialCharacters) {
  TablePrinter t({"a", "b"});
  t.AddRow({"x,y", "say \"hi\""});
  std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::FormatPercent(0.5, 0), "50%");
  std::string sci = TablePrinter::FormatScientific(12345.0, 2);
  EXPECT_NE(sci.find("e+04"), std::string::npos);
}

}  // namespace
}  // namespace upa
