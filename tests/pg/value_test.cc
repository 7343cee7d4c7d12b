#include "pg/value.h"

#include <gtest/gtest.h>

#include <ostream>

namespace pghive::pg {
namespace {

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.InferType(), DataType::kNull);
  EXPECT_EQ(v.ToString(), "null");
}

TEST(ValueTest, TypedConstructors) {
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(static_cast<int64_t>(3)).is_int());
  EXPECT_TRUE(Value(3.5).is_float());
  EXPECT_TRUE(Value("x").is_string());
}

TEST(ValueTest, TypedInference) {
  EXPECT_EQ(Value(true).InferType(), DataType::kBoolean);
  EXPECT_EQ(Value(static_cast<int64_t>(42)).InferType(), DataType::kInteger);
  EXPECT_EQ(Value(4.2).InferType(), DataType::kFloat);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(static_cast<int64_t>(-7)).ToString(), "-7");
  EXPECT_EQ(Value("hello").ToString(), "hello");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_FALSE(Value("a") == Value("b"));
  EXPECT_FALSE(Value(static_cast<int64_t>(1)) == Value(1.0));
}

// The paper's priority-based string inference (§4.4): integer > float >
// boolean > date/time > string.
struct InferCase {
  const char* literal;
  DataType expected;
};

// Names each case by its content; gtest would otherwise print the raw bytes
// of the struct, pointer included, and the CTest name would change per run.
void PrintTo(const InferCase& c, std::ostream* os) {
  *os << '"' << c.literal << "\" as " << DataTypeName(c.expected);
}

class StringInferenceTest : public ::testing::TestWithParam<InferCase> {};

TEST_P(StringInferenceTest, InfersExpectedType) {
  EXPECT_EQ(Value(GetParam().literal).InferType(), GetParam().expected)
      << "literal: " << GetParam().literal;
}

INSTANTIATE_TEST_SUITE_P(
    Literals, StringInferenceTest,
    ::testing::Values(
        InferCase{"42", DataType::kInteger},
        InferCase{"-17", DataType::kInteger},
        InferCase{"+5", DataType::kInteger},
        InferCase{"3.14", DataType::kFloat},
        InferCase{"-0.5", DataType::kFloat},
        InferCase{"1e9", DataType::kFloat},
        InferCase{"true", DataType::kBoolean},
        InferCase{"FALSE", DataType::kBoolean},
        InferCase{"2024-01-31", DataType::kDate},
        InferCase{"19/12/1999", DataType::kDate},
        InferCase{"2/5/1980", DataType::kDate},
        InferCase{"2024-01-31T10:20:30", DataType::kDateTime},
        InferCase{"2024-01-31 10:20:30", DataType::kDateTime},
        InferCase{"hello", DataType::kString},
        InferCase{"", DataType::kString},
        InferCase{"42x", DataType::kString},
        InferCase{"1.2.3", DataType::kString},
        InferCase{"2024-1-31", DataType::kString},    // Non-ISO widths.
        InferCase{"31/12/99", DataType::kString},     // Two-digit year.
        InferCase{"truthy", DataType::kString}));

TEST(LooksLikeTest, IntegerEdgeCases) {
  EXPECT_FALSE(LooksLikeInteger(""));
  EXPECT_FALSE(LooksLikeInteger("-"));
  EXPECT_FALSE(LooksLikeInteger("1 2"));
  EXPECT_TRUE(LooksLikeInteger("0"));
}

TEST(LooksLikeTest, FloatRequiresMarker) {
  EXPECT_FALSE(LooksLikeFloat("42"));  // Pure integer is not a float.
  EXPECT_TRUE(LooksLikeFloat("42.0"));
  EXPECT_TRUE(LooksLikeFloat("4E2"));
  EXPECT_FALSE(LooksLikeFloat("abc"));
}

TEST(LooksLikeTest, DateFormats) {
  EXPECT_TRUE(LooksLikeDate("1999-12-19"));
  EXPECT_FALSE(LooksLikeDate("1999-13-19x"));
  EXPECT_FALSE(LooksLikeDate("1999/12/19"));  // Slash needs d/m/yyyy shape.
  EXPECT_TRUE(LooksLikeDate("9/1/2020"));
}

TEST(LooksLikeTest, DateTimeRequiresFullShape) {
  EXPECT_TRUE(LooksLikeDateTime("2024-01-31T00:00:00"));
  EXPECT_TRUE(LooksLikeDateTime("2024-01-31T00:00:00.123Z"));
  EXPECT_FALSE(LooksLikeDateTime("2024-01-31"));
  EXPECT_FALSE(LooksLikeDateTime("2024-01-31TXX:00:00"));
}

// Join lattice properties (used when generalizing a property's type over
// many values).
TEST(JoinDataTypesTest, IdentityAndNull) {
  for (DataType t : {DataType::kInteger, DataType::kFloat, DataType::kBoolean,
                     DataType::kDate, DataType::kDateTime, DataType::kString}) {
    EXPECT_EQ(JoinDataTypes(t, t), t);
    EXPECT_EQ(JoinDataTypes(DataType::kNull, t), t);
    EXPECT_EQ(JoinDataTypes(t, DataType::kNull), t);
  }
}

TEST(JoinDataTypesTest, NumericPromotion) {
  EXPECT_EQ(JoinDataTypes(DataType::kInteger, DataType::kFloat),
            DataType::kFloat);
  EXPECT_EQ(JoinDataTypes(DataType::kFloat, DataType::kInteger),
            DataType::kFloat);
}

TEST(JoinDataTypesTest, TemporalPromotion) {
  EXPECT_EQ(JoinDataTypes(DataType::kDate, DataType::kDateTime),
            DataType::kDateTime);
}

TEST(JoinDataTypesTest, IncompatibleFallsBackToString) {
  EXPECT_EQ(JoinDataTypes(DataType::kInteger, DataType::kDate),
            DataType::kString);
  EXPECT_EQ(JoinDataTypes(DataType::kBoolean, DataType::kFloat),
            DataType::kString);
}

class JoinLatticeTest
    : public ::testing::TestWithParam<std::tuple<DataType, DataType>> {};

TEST_P(JoinLatticeTest, CommutativeAndAbsorbing) {
  auto [a, b] = GetParam();
  DataType ab = JoinDataTypes(a, b);
  EXPECT_EQ(ab, JoinDataTypes(b, a));
  // Absorption: joining the result with either operand is a fixpoint.
  EXPECT_EQ(JoinDataTypes(ab, a), ab);
  EXPECT_EQ(JoinDataTypes(ab, b), ab);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, JoinLatticeTest,
    ::testing::Combine(
        ::testing::Values(DataType::kNull, DataType::kInteger,
                          DataType::kFloat, DataType::kBoolean,
                          DataType::kDate, DataType::kDateTime,
                          DataType::kString),
        ::testing::Values(DataType::kNull, DataType::kInteger,
                          DataType::kFloat, DataType::kBoolean,
                          DataType::kDate, DataType::kDateTime,
                          DataType::kString)));

TEST(DataTypeNameTest, Names) {
  EXPECT_STREQ(DataTypeName(DataType::kInteger), "INTEGER");
  EXPECT_STREQ(DataTypeName(DataType::kDateTime), "TIMESTAMP");
  EXPECT_STREQ(DataTypeName(DataType::kString), "STRING");
}

// The literal parsers never throw: a literal beyond its type's range is
// "not a literal of that type" (nullopt), and a denormal double parses.
TEST(LiteralParseTest, IntegersInAndOutOfRange) {
  EXPECT_EQ(ParseIntegerLiteral("+42"), 42);
  EXPECT_EQ(ParseIntegerLiteral("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(ParseIntegerLiteral("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(ParseIntegerLiteral("9223372036854775808"), std::nullopt);
  EXPECT_EQ(ParseIntegerLiteral("99999999999999999999"), std::nullopt);
  EXPECT_EQ(ParseIntegerLiteral("1.5"), std::nullopt);
  EXPECT_EQ(ParseIntegerLiteral("+"), std::nullopt);
}

TEST(LiteralParseTest, FloatsIncludingDenormalsAndIntegers) {
  EXPECT_EQ(ParseFloatLiteral("2.5"), 2.5);
  EXPECT_EQ(ParseFloatLiteral("+7"), 7.0);
  EXPECT_EQ(ParseFloatLiteral("99999999999999999999"), 1e20);
  ASSERT_TRUE(ParseFloatLiteral("4e-320").has_value());
  EXPECT_GT(*ParseFloatLiteral("4e-320"), 0.0);
  EXPECT_EQ(ParseFloatLiteral("1e999"), std::nullopt);
  EXPECT_EQ(ParseFloatLiteral("abc"), std::nullopt);
  EXPECT_EQ(ParseFloatLiteral("inf"), std::nullopt);
}

}  // namespace
}  // namespace pghive::pg
