// Tests for src/data: values, schema, columns, tables, CSV, type
// inference, and the order-preserving rank encoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "data/csv_parser.h"
#include "data/encoder.h"
#include "data/schema.h"
#include "data/table.h"
#include "data/type_inference.h"
#include "data/value.h"
#include "gen/random.h"
#include "test_util.h"

namespace aod {
namespace {

// ---------------------------------------------------------------- Value --

TEST(ValueTest, NullOrdersFirst) {
  EXPECT_LT(Value::Null(), Value(int64_t{-100}));
  EXPECT_LT(Value::Null(), Value(-1e30));
  EXPECT_LT(Value::Null(), Value(""));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_LT(Value(int64_t{2}), Value(2.5));
  EXPECT_GT(Value(3.5), Value(int64_t{3}));
}

TEST(ValueTest, NumericsBeforeStrings) {
  EXPECT_LT(Value(int64_t{999}), Value("0"));
  EXPECT_LT(Value(1e30), Value(""));
}

TEST(ValueTest, StringLexicographic) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_LT(Value("ab"), Value("abc"));
  EXPECT_EQ(Value("x"), Value("x"));
}

TEST(ValueTest, LargeIntsCompareExactly) {
  // Doubles cannot distinguish these; int64 comparison must.
  int64_t base = (int64_t{1} << 53) + 0;
  EXPECT_LT(Value(base), Value(base + 1));
  EXPECT_NE(Value(base), Value(base + 1));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value("hi").ToString(), "hi");
}

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value(int64_t{1}).is_int());
  EXPECT_TRUE(Value(1.0).is_double());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).AsNumeric(), 3.0);
}

// --------------------------------------------------------------- Schema --

TEST(SchemaTest, FieldLookup) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kString}});
  EXPECT_EQ(s.num_fields(), 2);
  EXPECT_EQ(s.FieldIndex("b").value(), 1);
  EXPECT_FALSE(s.FieldIndex("missing").ok());
  EXPECT_TRUE(s.HasField("a"));
  EXPECT_EQ(s.field(0).name, "a");
}

TEST(SchemaTest, ToString) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  EXPECT_EQ(s.ToString(), "a:int64, b:double");
}

TEST(SchemaDeathTest, DuplicateFieldNameChecks) {
  Schema s({{"a", DataType::kInt64}});
  EXPECT_DEATH(s.AddField({"a", DataType::kString}), "duplicate field");
}

// --------------------------------------------------------------- Column --

TEST(ColumnTest, AppendAndGet) {
  Column col("c", DataType::kInt64);
  col.AppendInt(5);
  col.Append(Value(int64_t{7}));
  col.AppendNull();
  EXPECT_EQ(col.size(), 3);
  EXPECT_EQ(col.GetValue(0), Value(int64_t{5}));
  EXPECT_EQ(col.GetValue(1), Value(int64_t{7}));
  EXPECT_TRUE(col.GetValue(2).is_null());
  EXPECT_EQ(col.null_count(), 1);
}

TEST(ColumnTest, SetValueTracksNullCount) {
  Column col("c", DataType::kDouble);
  col.AppendDouble(1.0);
  col.AppendNull();
  EXPECT_EQ(col.null_count(), 1);
  col.SetValue(0, Value::Null());
  EXPECT_EQ(col.null_count(), 2);
  col.SetValue(1, Value(2.5));
  EXPECT_EQ(col.null_count(), 1);
  EXPECT_EQ(col.GetValue(1), Value(2.5));
}

TEST(ColumnTest, DoubleColumnAcceptsIntValues) {
  Column col("c", DataType::kDouble);
  col.Append(Value(int64_t{3}));
  EXPECT_EQ(col.GetValue(0), Value(3.0));
}

TEST(ColumnTest, NanIsStoredAsNull) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Column col("c", DataType::kDouble);
  col.AppendDouble(nan);
  col.Append(Value(nan));
  col.AppendDouble(1.5);
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.null_count(), 2);
  col.SetValue(2, Value(-nan));
  EXPECT_TRUE(col.GetValue(2).is_null());
  EXPECT_EQ(col.null_count(), 3);
  col.SetValue(0, Value(4.0));
  EXPECT_EQ(col.null_count(), 2);

  // The encoder sees the NaN cells as the null group.
  col.AppendDouble(-2.0);
  col.AppendDouble(nan);
  EncodedColumn enc = EncodeColumn(col);
  EXPECT_EQ(enc.ranks, (std::vector<int32_t>{2, 0, 0, 1, 0}));
  EXPECT_EQ(enc.cardinality, 3);
  EXPECT_TRUE(enc.Decode(0).is_null());
}

TEST(ColumnDeathTest, TypeMismatchChecks) {
  Column col("c", DataType::kInt64);
  EXPECT_DEATH(col.Append(Value("str")), "appending non-int");
}

// ---------------------------------------------------------------- Table --

TEST(TableTest, FromRowsRoundTrip) {
  Table t = testing_util::PaperTable1();
  EXPECT_EQ(t.num_rows(), 9);
  EXPECT_EQ(t.num_columns(), 7);
  EXPECT_EQ(t.GetValue(0, 0), Value("sec"));
  EXPECT_EQ(t.GetValue(8, 2), Value(int64_t{200}));
  EXPECT_EQ(t.ColumnByName("sal").value()->GetValue(3), Value(int64_t{40}));
  EXPECT_FALSE(t.ColumnByName("nope").ok());
}

TEST(TableTest, HeadTakesPrefix) {
  Table t = testing_util::PaperTable1();
  Table h = t.Head(3);
  EXPECT_EQ(h.num_rows(), 3);
  EXPECT_EQ(h.GetValue(2, 0), Value("dev"));
  EXPECT_EQ(t.Head(100).num_rows(), 9);
}

TEST(TableTest, SelectColumnsReordersAndSubsets) {
  Table t = testing_util::PaperTable1();
  Table s = t.SelectColumns({"sal", "pos"}).value();
  EXPECT_EQ(s.num_columns(), 2);
  EXPECT_EQ(s.schema().field(0).name, "sal");
  EXPECT_EQ(s.GetValue(0, 0), Value(int64_t{20}));
  EXPECT_EQ(s.GetValue(0, 1), Value("sec"));
  EXPECT_FALSE(t.SelectColumns({"nope"}).ok());
}

TEST(TableTest, SelectFirstColumns) {
  Table t = testing_util::PaperTable1();
  Table s = t.SelectFirstColumns(3);
  EXPECT_EQ(s.num_columns(), 3);
  EXPECT_EQ(s.schema().field(2).name, "sal");
  EXPECT_EQ(s.num_rows(), 9);
}

TEST(TableTest, ToStringListsRowsAndTruncates) {
  Table t = testing_util::PaperTable1();
  std::string s = t.ToString(2);
  EXPECT_NE(s.find("pos"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

// ------------------------------------------------------- Type inference --

TEST(TypeInferenceTest, NullTokens) {
  EXPECT_TRUE(IsNullToken(""));
  EXPECT_TRUE(IsNullToken("  "));
  EXPECT_TRUE(IsNullToken("NULL"));
  EXPECT_TRUE(IsNullToken("na"));
  EXPECT_TRUE(IsNullToken("N/A"));
  EXPECT_TRUE(IsNullToken("?"));
  EXPECT_FALSE(IsNullToken("0"));
  EXPECT_FALSE(IsNullToken("none"));
}

TEST(TypeInferenceTest, NarrowestType) {
  EXPECT_EQ(InferColumnType({"1", "2", ""}), DataType::kInt64);
  EXPECT_EQ(InferColumnType({"1", "2.5"}), DataType::kDouble);
  EXPECT_EQ(InferColumnType({"1", "x"}), DataType::kString);
  EXPECT_EQ(InferColumnType({"", "NULL"}), DataType::kString);
  EXPECT_EQ(InferColumnType({"-3", "+e"}), DataType::kString);
}

TEST(TypeInferenceTest, ParseCellCoercesAndNulls) {
  EXPECT_EQ(ParseCell("7", DataType::kInt64), Value(int64_t{7}));
  EXPECT_EQ(ParseCell("2.5", DataType::kDouble), Value(2.5));
  EXPECT_EQ(ParseCell(" x ", DataType::kString), Value("x"));
  EXPECT_TRUE(ParseCell("", DataType::kInt64).is_null());
  EXPECT_TRUE(ParseCell("junk", DataType::kInt64).is_null());
}

// ------------------------------------------------------------------ CSV --

TEST(CsvTest, BasicWithHeaderAndInference) {
  auto t = ParseCsv("a,b,c\n1,2.5,x\n2,3.5,y\n").value();
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(t.schema().field(1).type, DataType::kDouble);
  EXPECT_EQ(t.schema().field(2).type, DataType::kString);
  EXPECT_EQ(t.GetValue(1, 0), Value(int64_t{2}));
  EXPECT_EQ(t.GetValue(0, 2), Value("x"));
}

TEST(CsvTest, QuotedFieldsWithDelimitersAndEscapes) {
  auto t = ParseCsv("name,notes\n\"Smith, John\",\"said \"\"hi\"\"\"\n")
               .value();
  EXPECT_EQ(t.GetValue(0, 0), Value("Smith, John"));
  EXPECT_EQ(t.GetValue(0, 1), Value("said \"hi\""));
}

TEST(CsvTest, QuotedNewlines) {
  auto t = ParseCsv("a,b\n\"line1\nline2\",2\n").value();
  EXPECT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.GetValue(0, 0), Value("line1\nline2"));
}

TEST(CsvTest, CrlfAndBlankLines) {
  auto t = ParseCsv("a,b\r\n1,2\r\n\r\n3,4\r\n").value();
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.GetValue(1, 1), Value(int64_t{4}));
}

TEST(CsvTest, NoHeaderNamesColumns) {
  CsvOptions options;
  options.has_header = false;
  auto t = ParseCsv("5,6\n7,8\n", options).value();
  EXPECT_EQ(t.schema().field(0).name, "c0");
  EXPECT_EQ(t.num_rows(), 2);
}

TEST(CsvTest, MaxRowsLimits) {
  CsvOptions options;
  options.max_rows = 1;
  auto t = ParseCsv("a\n1\n2\n3\n", options).value();
  EXPECT_EQ(t.num_rows(), 1);
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = '|';
  auto t = ParseCsv("a|b\n1|2\n", options).value();
  EXPECT_EQ(t.GetValue(0, 1), Value(int64_t{2}));
}

TEST(CsvTest, NullTokensBecomeNulls) {
  auto t = ParseCsv("a,b\n1,x\nNULL,\n").value();
  EXPECT_TRUE(t.GetValue(1, 0).is_null());
  EXPECT_TRUE(t.GetValue(1, 1).is_null());
}

TEST(CsvTest, RaggedRowRejected) {
  auto r = ParseCsv("a,b\n1,2\n3\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, TooManyColumnsRejected) {
  auto r = ParseCsv("a,b\n1,2,3\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  // The complaint names the offending width, not a truncated parse.
  EXPECT_NE(r.status().message().find("3 fields"), std::string::npos);
}

TEST(CsvTest, QuotedCrlfPreservedVerbatim) {
  // A quoted field may span a CRLF line break; the field keeps both
  // bytes (RFC 4180) and the record structure is unaffected.
  auto t = ParseCsv("a,b\r\n\"x\r\ny\",2\r\n").value();
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.GetValue(0, 0), Value("x\r\ny"));
  EXPECT_EQ(t.GetValue(0, 1), Value(int64_t{2}));
}

TEST(CsvTest, FinalRowWithoutTrailingNewline) {
  auto t = ParseCsv("a,b\n1,2\n3,4").value();
  ASSERT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.GetValue(1, 1), Value(int64_t{4}));
  // Also with the final field quoted.
  auto q = ParseCsv("a\n\"z\"").value();
  ASSERT_EQ(q.num_rows(), 1);
  EXPECT_EQ(q.GetValue(0, 0), Value("z"));
}

TEST(CsvTest, LoneCarriageReturnTerminatesRecord) {
  // Classic-Mac line endings: 'a,b\r1,2' is two records, never the
  // silently glued "a,b1,2" the old tokenizer produced.
  auto t = ParseCsv("a,b\r1,2\r3,4");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 2);
  EXPECT_EQ(t->GetValue(0, 0), Value(int64_t{1}));
  EXPECT_EQ(t->GetValue(1, 1), Value(int64_t{4}));
}

TEST(CsvTest, JunkAfterClosingQuoteRejected) {
  auto r = ParseCsv("a,b\n\"x\"y,2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("closing quote"), std::string::npos);
  // A closing quote followed by delimiter or record end stays fine.
  EXPECT_TRUE(ParseCsv("a,b\n\"x\",2\n").ok());
  EXPECT_TRUE(ParseCsv("a,b\n2,\"x\"\r\n").ok());
}

TEST(CsvTest, UnterminatedQuoteRejected) {
  auto r = ParseCsv("a\n\"oops\n");
  ASSERT_FALSE(r.ok());
}

TEST(CsvTest, EmptyInputRejected) {
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(CsvTest, DuplicateHeadersDeduplicated) {
  auto t = ParseCsv("a,a\n1,2\n").value();
  EXPECT_EQ(t.schema().field(0).name, "a");
  EXPECT_NE(t.schema().field(1).name, "a");
}

TEST(CsvTest, WriteReadRoundTrip) {
  Table t = testing_util::PaperTable1();
  std::string csv = WriteCsv(t);
  auto back = ParseCsv(csv).value();
  ASSERT_EQ(back.num_rows(), t.num_rows());
  ASSERT_EQ(back.num_columns(), t.num_columns());
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      EXPECT_EQ(back.GetValue(r, c), t.GetValue(r, c))
          << "cell (" << r << ", " << c << ")";
    }
  }
}

TEST(CsvTest, ReadMissingFileFails) {
  auto r = ReadCsvFile("/nonexistent/path.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

// -------------------------------------------------------------- Encoder --

TEST(EncoderTest, RanksAreDenseAndOrderPreserving) {
  Column col("c", DataType::kInt64);
  for (int64_t v : {30, 10, 20, 10, 30}) col.AppendInt(v);
  EncodedColumn enc = EncodeColumn(col);
  EXPECT_EQ(enc.cardinality, 3);
  EXPECT_EQ(enc.ranks, (std::vector<int32_t>{2, 0, 1, 0, 2}));
}

TEST(EncoderTest, NullsShareSmallestRank) {
  Column col("c", DataType::kInt64);
  col.AppendInt(5);
  col.AppendNull();
  col.AppendInt(-100);
  col.AppendNull();
  EncodedColumn enc = EncodeColumn(col);
  EXPECT_EQ(enc.cardinality, 3);
  EXPECT_EQ(enc.ranks, (std::vector<int32_t>{2, 0, 1, 0}));
}

TEST(EncoderTest, StringColumnLexicographic) {
  Column col("c", DataType::kString);
  for (const char* v : {"bb", "aa", "cc", "aa"}) col.AppendString(v);
  EncodedColumn enc = EncodeColumn(col);
  EXPECT_EQ(enc.ranks, (std::vector<int32_t>{1, 0, 2, 0}));
}

TEST(EncoderTest, DoubleColumn) {
  Column col("c", DataType::kDouble);
  for (double v : {2.5, -1.0, 2.5, 0.0}) col.AppendDouble(v);
  EncodedColumn enc = EncodeColumn(col);
  EXPECT_EQ(enc.ranks, (std::vector<int32_t>{2, 0, 2, 1}));
}

TEST(EncoderTest, WholeTable) {
  EncodedTable enc = testing_util::PaperEncoded();
  EXPECT_EQ(enc.num_rows(), 9);
  EXPECT_EQ(enc.num_columns(), 7);
  EXPECT_EQ(enc.ColumnIndex("sal"), 2);
  EXPECT_EQ(enc.ColumnIndex("nope"), -1);
  // sal is strictly increasing in Table 1, so ranks are 0..8.
  EXPECT_EQ(enc.ranks(2),
            (std::vector<int32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(EncoderTest, FromIntsDensifies) {
  EncodedTable enc = EncodedTableFromInts({"x"}, {{100, -5, 100, 7}});
  EXPECT_EQ(enc.ranks(0), (std::vector<int32_t>{2, 0, 2, 1}));
  EXPECT_EQ(enc.column(0).cardinality, 3);
}

// Property: encoding preserves the pairwise value order of every column.
class EncoderPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncoderPropertyTest, RankOrderMatchesValueOrder) {
  Rng rng(GetParam());
  const int n = 200;
  for (DataType type :
       {DataType::kInt64, DataType::kDouble, DataType::kString}) {
    SCOPED_TRACE(DataTypeToString(type));
    Column col("c", type);
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.1)) {
        col.AppendNull();
        continue;
      }
      const int64_t v = rng.UniformInt(-50, 50);
      switch (type) {
        case DataType::kInt64:
          col.AppendInt(v);
          break;
        case DataType::kDouble:
          // Quarter steps, with -0.0 beside +0.0 and both infinities.
          col.AppendDouble(v == -50   ? -0.0
                           : v == 50  ? std::numeric_limits<double>::infinity()
                           : v == -49 ? -std::numeric_limits<double>::infinity()
                                      : static_cast<double>(v) / 4.0);
          break;
        case DataType::kString:
          col.AppendString(std::string(static_cast<size_t>(v + 50) % 4, 'a') +
                           static_cast<char>('a' + (v + 50) % 3));
          break;
      }
    }
    EncodedColumn enc = EncodeColumn(col);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        Value a = col.GetValue(i);
        Value b = col.GetValue(j);
        int value_cmp = a.Compare(b);
        int32_t ra = enc.ranks[static_cast<size_t>(i)];
        int32_t rb = enc.ranks[static_cast<size_t>(j)];
        int rank_cmp = ra < rb ? -1 : (ra > rb ? 1 : 0);
        ASSERT_EQ(value_cmp < 0 ? -1 : (value_cmp > 0 ? 1 : 0), rank_cmp)
            << a.ToString() << " vs " << b.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncoderPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------ Encoder differential --
//
// The encoder ranks cells through order-preserving keys (direct
// addressing, a packed radix sort, or a pair sort when key and row bits
// exceed 64) and strings through a hash table. The oracle below is the
// comparator encoder it replaced: a stable sort of row ids, whose ranks,
// cardinality and dictionary (the value at each rank's smallest row) the
// new encoder must reproduce exactly.

struct OracleEncoding {
  std::vector<int32_t> ranks;
  int32_t cardinality = 0;
  std::vector<Value> dictionary;
};

template <typename Less, typename Equal>
OracleEncoding RankByOrder(const Column& column, Less less, Equal equal) {
  const int64_t n = column.size();
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), less);

  OracleEncoding out;
  out.ranks.assign(static_cast<size_t>(n), 0);
  int32_t next_rank = -1;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || !equal(order[i - 1], order[i])) {
      ++next_rank;
      out.dictionary.push_back(column.GetValue(order[i]));
    }
    out.ranks[static_cast<size_t>(order[i])] = next_rank;
  }
  out.cardinality = next_rank + 1;
  return out;
}

template <typename T>
OracleEncoding OracleEncodeTyped(const Column& column,
                                 const std::vector<T>& v) {
  auto less = [&](int64_t a, int64_t b) {
    bool an = column.IsNull(a);
    bool bn = column.IsNull(b);
    if (an || bn) return an && !bn;
    return v[static_cast<size_t>(a)] < v[static_cast<size_t>(b)];
  };
  auto equal = [&](int64_t a, int64_t b) {
    bool an = column.IsNull(a);
    bool bn = column.IsNull(b);
    if (an || bn) return an == bn;
    return v[static_cast<size_t>(a)] == v[static_cast<size_t>(b)];
  };
  return RankByOrder(column, less, equal);
}

OracleEncoding OracleEncode(const Column& column) {
  switch (column.type()) {
    case DataType::kInt64:
      return OracleEncodeTyped(column, column.ints());
    case DataType::kDouble:
      return OracleEncodeTyped(column, column.doubles());
    case DataType::kString:
      return OracleEncodeTyped(column, column.strings());
  }
  return {};
}

/// Same type and same bits: tells -0.0 from +0.0, unlike Value::operator==.
bool SameCell(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_int()) return b.is_int() && a.as_int() == b.as_int();
  if (a.is_double()) {
    return b.is_double() && std::bit_cast<uint64_t>(a.as_double()) ==
                                std::bit_cast<uint64_t>(b.as_double());
  }
  return b.is_string() && a.as_string() == b.as_string();
}

void ExpectMatchesOracle(const Column& column) {
  const OracleEncoding want = OracleEncode(column);
  const EncodedColumn got = EncodeColumn(column);
  ASSERT_EQ(got.ranks, want.ranks);
  ASSERT_EQ(got.cardinality, want.cardinality);
  EXPECT_EQ(got.dictionary.type(), column.type());
  ASSERT_EQ(got.dictionary.size(),
            static_cast<int64_t>(want.dictionary.size()));
  for (size_t r = 0; r < want.dictionary.size(); ++r) {
    const Value v = got.Decode(static_cast<int32_t>(r));
    EXPECT_TRUE(SameCell(v, want.dictionary[r]))
        << "rank " << r << ": " << v.ToString() << " vs "
        << want.dictionary[r].ToString();
  }
}

Column IntColumn(const std::vector<int64_t>& values) {
  Column col("c", DataType::kInt64);
  for (int64_t v : values) col.AppendInt(v);
  return col;
}

/// n cells drawn as lo + step * UniformInt(0, levels - 1), a share
/// `null_rate` of them null.
Column RandomIntColumn(Rng& rng, int64_t n, int64_t lo, int64_t step,
                       int64_t levels, double null_rate = 0.1) {
  Column col("c", DataType::kInt64);
  for (int64_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(null_rate)) {
      col.AppendNull();
    } else {
      col.AppendInt(lo + step * rng.UniformInt(0, levels - 1));
    }
  }
  return col;
}

TEST(EncoderDifferentialTest, DenseSpan) {
  // Span at most 4n + 2^16: ranked by direct addressing.
  Rng rng(11);
  ExpectMatchesOracle(RandomIntColumn(rng, 5000, -3000, 1, 6000));
  ExpectMatchesOracle(RandomIntColumn(rng, 5000, 1000, 7, 40));
  ExpectMatchesOracle(RandomIntColumn(rng, 3, 0, 1, 2, 0.0));
  ExpectMatchesOracle(IntColumn({42}));
  ExpectMatchesOracle(IntColumn({7, 7, 7, 7}));
  // Both ends of the direct-addressing bound: 4n + 2^16 and one past it.
  ExpectMatchesOracle(IntColumn({0, 16 + 65536, 5, 5}));
  ExpectMatchesOracle(IntColumn({0, 16 + 65537, 5, 5}));
}

TEST(EncoderDifferentialTest, WideSpan) {
  // Spans over 2^40 whose key and row bits fit one word: the radix path.
  Rng rng(12);
  ExpectMatchesOracle(
      RandomIntColumn(rng, 4000, -(int64_t{1} << 50), int64_t{1} << 41, 900));
  ExpectMatchesOracle(RandomIntColumn(rng, 4000, int64_t{1} << 62, 1 << 30,
                                      int64_t{1} << 20));
  // Span just under 2^60 with 16 rows: 60 key + 4 row bits, exactly 64.
  std::vector<int64_t> values;
  for (int i = 0; i < 16; ++i) {
    values.push_back((i % 5) * ((int64_t{1} << 58) - 1) - (int64_t{1} << 40));
  }
  ExpectMatchesOracle(IntColumn(values));
}

TEST(EncoderDifferentialTest, OverSixtyFourBitsFallsBackToPairSort) {
  const int64_t min = std::numeric_limits<int64_t>::min();
  const int64_t max = std::numeric_limits<int64_t>::max();
  // The full int64 span: hi - lo is 2^64 - 1, so span + 1 would wrap.
  ExpectMatchesOracle(IntColumn({max, min, 0, max, -1, min, 1}));
  ExpectMatchesOracle(IntColumn({min, max}));
  // 60 key bits + 5 row bits for 17 rows: one bit over a word.
  std::vector<int64_t> values;
  for (int i = 0; i < 17; ++i) {
    values.push_back((i % 5) * ((int64_t{1} << 58) - 1));
  }
  ExpectMatchesOracle(IntColumn(values));
  Rng rng(13);
  Column col("c", DataType::kInt64);
  for (int i = 0; i < 3000; ++i) {
    if (rng.Bernoulli(0.1)) {
      col.AppendNull();
    } else if (rng.Bernoulli(0.2)) {
      col.AppendInt(rng.Bernoulli(0.5) ? min : max);
    } else {
      col.AppendInt(static_cast<int64_t>(rng.NextUint64()) >> 3);
    }
  }
  ExpectMatchesOracle(col);
}

TEST(EncoderDifferentialTest, NullEmptyAndAllNullColumns) {
  for (DataType type :
       {DataType::kInt64, DataType::kDouble, DataType::kString}) {
    SCOPED_TRACE(DataTypeToString(type));
    Column empty("c", type);
    ExpectMatchesOracle(empty);
    EXPECT_EQ(EncodeColumn(empty).cardinality, 0);
    Column all_null("c", type);
    for (int i = 0; i < 5; ++i) all_null.AppendNull();
    ExpectMatchesOracle(all_null);
    EXPECT_EQ(EncodeColumn(all_null).cardinality, 1);
  }
  Rng rng(14);
  ExpectMatchesOracle(RandomIntColumn(rng, 2000, -10, 1, 20, 0.5));
  ExpectMatchesOracle(
      RandomIntColumn(rng, 2000, 0, int64_t{1} << 44, 100, 0.5));
  Column one("c", DataType::kInt64);
  one.AppendNull();
  one.AppendInt(3);
  one.AppendNull();
  ExpectMatchesOracle(one);
}

TEST(EncoderDifferentialTest, SignedZerosKeepTheFirstRowsValue) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& values :
       {std::vector<double>{-0.0, 0.0, 1.5, -0.0},
        std::vector<double>{0.0, -0.0, -1.5, 0.0},
        std::vector<double>{inf, -inf, -0.0, 0.0, -inf, inf, 2.0}}) {
    Column col("c", DataType::kDouble);
    col.AppendNull();
    for (double v : values) col.AppendDouble(v);
    ExpectMatchesOracle(col);
  }
  Column neg_first("c", DataType::kDouble);
  neg_first.AppendDouble(-0.0);
  neg_first.AppendDouble(0.0);
  EncodedColumn enc = EncodeColumn(neg_first);
  EXPECT_EQ(enc.ranks, (std::vector<int32_t>{0, 0}));
  EXPECT_TRUE(std::signbit(enc.Decode(0).as_double()));
}

TEST(EncoderDifferentialTest, SignedZeroTiesOnEveryPath) {
  // Many tied zeros whose first row has the other sign: a path that does
  // not keep each rank's smallest row decodes the wrong zero.
  const double tiny = std::numeric_limits<double>::denorm_min();
  Rng rng(17);
  for (int path = 0; path < 3; ++path) {
    for (double first : {-0.0, 0.0}) {
      SCOPED_TRACE(path);
      Column col("c", DataType::kDouble);
      bool first_zero = true;
      for (int i = 0; i < 2000; ++i) {
        if (rng.Bernoulli(0.3)) {
          col.AppendDouble(first_zero ? first : -first);
          first_zero = false;
        } else if (path == 0) {  // span under 4n: direct addressing
          col.AppendDouble(tiny * static_cast<double>(rng.UniformInt(1, 999)));
        } else if (path == 1) {  // 41 key + 11 row bits: radix
          col.AppendDouble(tiny *
                           static_cast<double>(rng.UniformInt(1, 1LL << 40)));
        } else {  // zeros beside normal values: over 64 bits, pair sort
          col.AppendDouble(rng.Normal(0.0, 100.0));
        }
      }
      ExpectMatchesOracle(col);
    }
  }
}

TEST(EncoderDifferentialTest, DoubleColumns) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(15);
  // One binade with few mantissa bits (radix), then mixed signs and
  // magnitudes (pair sort), each with ties, zeros and infinities.
  for (int shape = 0; shape < 2; ++shape) {
    Column col("c", DataType::kDouble);
    for (int i = 0; i < 3000; ++i) {
      const int64_t pick = rng.UniformInt(0, 99);
      if (pick < 8) {
        col.AppendNull();
      } else if (shape == 0) {
        col.AppendDouble(1.0 + static_cast<double>(rng.UniformInt(0, 400)) /
                                   512.0);
      } else if (pick < 12) {
        col.AppendDouble(pick % 2 == 0 ? inf : -inf);
      } else if (pick < 20) {
        col.AppendDouble(pick % 2 == 0 ? 0.0 : -0.0);
      } else if (pick < 24) {
        col.AppendDouble(std::numeric_limits<double>::denorm_min() *
                         static_cast<double>(pick - 21));
      } else {
        col.AppendDouble(rng.Normal(0.0, 1e6));
      }
    }
    ExpectMatchesOracle(col);
  }
  Column extremes("c", DataType::kDouble);
  for (double v : {std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::lowest(), 1.0, -1.0,
                   std::numeric_limits<double>::min(), -0.0}) {
    extremes.AppendDouble(v);
  }
  ExpectMatchesOracle(extremes);
}

TEST(EncoderDifferentialTest, StringColumns) {
  Column col("c", DataType::kString);
  for (const char* v : {"abc", "ab", "", "abd", "a", "b", "ab", "", "abcd",
                        "\xff", "a b", "abc"}) {
    col.AppendString(v);
  }
  col.AppendString(std::string("a\0b", 3));
  col.AppendString(std::string("a\0", 2));
  col.AppendNull();
  ExpectMatchesOracle(col);

  Rng rng(16);
  Column random("c", DataType::kString);
  for (int i = 0; i < 5000; ++i) {
    if (rng.Bernoulli(0.05)) {
      random.AppendNull();
      continue;
    }
    std::string s = "prefix/";
    const int64_t len = rng.UniformInt(0, 4);
    for (int64_t k = 0; k < len; ++k) {
      s.push_back(static_cast<char>('x' + rng.UniformInt(0, 2)));
    }
    random.AppendString(std::move(s));
  }
  ExpectMatchesOracle(random);
}

TEST(EncoderDifferentialTest, RandomColumnsAcrossPaths) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const int64_t n = rng.UniformInt(1, 3000);
    const int64_t levels = rng.UniformInt(1, 2 * n);
    // Spans from a few values up to 2^62, centred on zero.
    const int max_shift = 62 - std::bit_width(static_cast<uint64_t>(levels));
    const int64_t step = int64_t{1} << rng.UniformInt(0, max_shift);
    const int64_t lo = -step * (levels / 2);
    ExpectMatchesOracle(RandomIntColumn(rng, n, lo, step, levels,
                                        rng.UniformDouble() * 0.3));
  }
}

}  // namespace
}  // namespace aod
