// Zero-copy data path tests: allocation-regression proof for the
// steady-state pipeline, buffer-pool behaviour, and equivalence of the
// columnar fast paths against the legacy row-at-a-time paths.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "adapters/csv.h"
#include "adapters/generator.h"
#include "adapters/sink.h"
#include "algebra/kernels.h"
#include "common/check.h"
#include "core/basket.h"
#include "core/engine.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "storage/batch_pool.h"
#include "storage/column_batch.h"

// The global allocation counter is only meaningful when neither a sanitizer
// nor the debug-check layer is active: sanitizers own the allocator, and the
// lock-order checker heap-allocates its bookkeeping on hot paths.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__) && \
    !DATACELL_DEBUG_CHECKS_ENABLED
#define DATACELL_COUNT_ALLOCS 1
#else
#define DATACELL_COUNT_ALLOCS 0
#endif

#if DATACELL_COUNT_ALLOCS

namespace {
std::atomic<int64_t> g_alloc_count{0};
}  // namespace

// The counting operators pair malloc with free deliberately; gcc flags the
// free() because it pattern-matches delete-of-new.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

#endif  // DATACELL_COUNT_ALLOCS

namespace datacell {
namespace {

Schema TwoIntSchema() {
  return Schema({{"x", DataType::kInt64}, {"v", DataType::kInt64}});
}

/// Rows of `t` rendered as strings — a representation-independent view for
/// equivalence assertions (nulls render distinctly from values).
std::vector<std::string> RowStrings(const Table& t) {
  std::vector<std::string> out;
  out.reserve(t.num_rows());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    std::string s;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Bat& col = *t.column(c);
      s += col.IsNull(i) ? "<null>" : col.GetValue(i).ToString();
      s.push_back('|');
    }
    out.push_back(std::move(s));
  }
  return out;
}

// --- allocation regression -------------------------------------------------

// One full pipeline round on fixed-width columns: columnar ingest with
// buffer swap, stealing drain, kernel select, position gather, move-append
// to the output basket, stealing drain on the emitter side. After warm-up
// every buffer involved ping-pongs between the stages at its high-water
// capacity, so the steady state must perform zero heap allocations.
TEST(DatapathAllocTest, SteadyStatePipelineRoundIsAllocationFree) {
#if !DATACELL_COUNT_ALLOCS
  GTEST_SKIP() << "allocation counting disabled under sanitizers or "
                  "debug-check builds";
#else
  constexpr size_t kRows = 1024;
  Basket ingest(Basket::MakeBasketTable("in", TwoIntSchema()));
  Basket output(Basket::MakeBasketTable("out", TwoIntSchema()));
  ColumnBatch batch(TwoIntSchema());
  Table scratch("scratch", ingest.schema());
  Table result("result", TwoIntSchema());
  Table delivered("delivered", output.schema());
  std::vector<size_t> positions(kRows);

  auto round = [&](int64_t r) {
    batch.Clear();
    for (size_t i = 0; i < kRows; ++i) {
      batch.column(0).AppendInt64(static_cast<int64_t>(i));
      batch.column(1).AppendInt64(r);
    }
    ASSERT_TRUE(ingest.AppendColumns(std::move(batch), r).ok());
    scratch.Clear();
    ingest.DrainAllInto(&scratch);
    const Bat& x = *scratch.column(0);
    size_t cnt = kernel::SelectRangeInt64(x.int64_data().data(), 100, 899, 0,
                                          x.size(), positions.data());
    positions.resize(cnt);
    result.Clear();
    result.column(0)->AppendPositions(*scratch.column(0), positions);
    result.column(1)->AppendPositions(*scratch.column(1), positions);
    ASSERT_TRUE(output.AppendStampedMove(std::move(result), r).ok());
    delivered.Clear();
    output.DrainAllInto(&delivered);
    ASSERT_EQ(delivered.num_rows(), 800u);
    positions.resize(kRows);
  };

  // Warm-up: establishes vector capacities on every stage's buffers.
  for (int64_t r = 0; r < 4; ++r) round(r);

  int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int64_t r = 4; r < 16; ++r) round(r);
  int64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "steady-state pipeline rounds performed heap allocations";

  EXPECT_EQ(ingest.total_appended(), ingest.total_consumed());
  EXPECT_EQ(output.total_appended(), output.total_consumed());
#endif
}

// --- batch pool ------------------------------------------------------------

TEST(BatchPoolTest, DrainAcquiresMissThenRecycledBuffersHit) {
  BatchPool pool;
  Basket b(Basket::MakeBasketTable("r", TwoIntSchema()));
  b.SetBatchPool(&pool);
  ASSERT_TRUE(b.Append({Value::Int64(1), Value::Int64(2)}, 10).ok());

  // First drain: the pool has nothing to hand out — every column misses.
  TablePtr first = b.DrainAll();
  EXPECT_EQ(first->num_rows(), 1u);
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), first->num_columns());

  // An emitter done with the table recycles its buffers...
  pool.Recycle(*first);
  EXPECT_EQ(pool.recycled(), first->num_columns());
  EXPECT_GT(pool.free_buffers(), 0u);

  // ...and the next drain reuses them.
  ASSERT_TRUE(b.Append({Value::Int64(3), Value::Int64(4)}, 11).ok());
  TablePtr second = b.DrainAll();
  EXPECT_EQ(second->num_rows(), 1u);
  EXPECT_EQ(pool.hits(), second->num_columns());
  EXPECT_EQ(second->column(0)->Int64At(0), 3);
}

TEST(BatchPoolTest, DropsBuffersBeyondCapacity) {
  BatchPool pool(/*max_buffers_per_class=*/1);
  BatPtr a = MakeInt64Bat({1, 2, 3});
  BatPtr b = MakeInt64Bat({4, 5, 6});
  pool.Recycle(*a);
  pool.Recycle(*b);  // free list for int64 is full — dropped
  EXPECT_EQ(pool.recycled(), 1u);
  EXPECT_EQ(pool.dropped(), 1u);
}

// --- equivalence: columnar vs row paths ------------------------------------

TEST(DatapathEquivalenceTest, ColumnarCsvIngestMatchesRowIngest) {
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"b", DataType::kBool}});
  std::vector<std::string> lines = {
      "1,1.5,hello,true",
      "-7,2.25e3,world,false",
      ",,,",                       // all nulls
      "42,  ,  spaced  ,1",        // null double, string keeps spaces
      "9,0.125,\"quoted,comma\",f",
      "10,3.5,\"\",t",             // quoted empty = real empty string
  };

  Basket row_basket(Basket::MakeBasketTable("rows", schema));
  std::vector<Row> rows;
  for (const std::string& line : lines) {
    auto parsed = ParseCsvRow(line, schema);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    rows.push_back(std::move(*parsed));
  }
  ASSERT_TRUE(row_basket.AppendBatch(rows, 77).ok());

  Basket col_basket(Basket::MakeBasketTable("cols", schema));
  ColumnBatch batch(schema);
  for (const std::string& line : lines) {
    ASSERT_TRUE(AppendCsvToColumns(line, &batch).ok()) << line;
  }
  ASSERT_TRUE(col_basket.AppendColumns(std::move(batch), 77).ok());

  EXPECT_EQ(RowStrings(*row_basket.PeekSnapshot()),
            RowStrings(*col_basket.PeekSnapshot()));
}

TEST(DatapathEquivalenceTest, MalformedLineLeavesBatchUnchanged) {
  Schema schema({{"i", DataType::kInt64}, {"s", DataType::kString}});
  ColumnBatch batch(schema);
  ASSERT_TRUE(AppendCsvToColumns("1,ok", &batch).ok());
  EXPECT_FALSE(AppendCsvToColumns("notanint,bad", &batch).ok());
  EXPECT_FALSE(AppendCsvToColumns("1,two,three", &batch).ok());
  EXPECT_EQ(batch.num_rows(), 1u);
  EXPECT_EQ(batch.column(0).size(), batch.column(1).size());
  EXPECT_EQ(batch.column(1).StringAt(0), "ok");
}

TEST(DatapathEquivalenceTest, StealingDrainMatchesSnapshot) {
  Basket b(Basket::MakeBasketTable("r", TwoIntSchema()));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(b.Append({Value::Int64(i), Value::Int64(i * 2)}, i).ok());
  }
  TablePtr snapshot = b.PeekSnapshot();
  TablePtr drained = b.DrainAll();
  EXPECT_EQ(RowStrings(*snapshot), RowStrings(*drained));
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.total_appended(), b.total_consumed());
}

TEST(DatapathEquivalenceTest, SingleReaderDrainNewForMatchesReadNewFor) {
  // Two baskets with identical traffic: one drained via the read+trim pair,
  // one via the stealing DrainNewFor. The delivered tuples must match.
  Basket legacy(Basket::MakeBasketTable("a", TwoIntSchema()));
  Basket stealing(Basket::MakeBasketTable("b", TwoIntSchema()));
  size_t lr = legacy.RegisterReader();
  size_t sr = stealing.RegisterReader();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5; ++i) {
      Row row{Value::Int64(round * 5 + i), Value::Int64(i)};
      ASSERT_TRUE(legacy.Append(row, round).ok());
      ASSERT_TRUE(stealing.Append(row, round).ok());
    }
    TablePtr want = legacy.ReadNewFor(lr);
    legacy.TrimConsumed();
    TablePtr got = stealing.DrainNewFor(sr);
    EXPECT_EQ(RowStrings(*want), RowStrings(*got));
  }
  EXPECT_EQ(stealing.total_consumed(), legacy.total_consumed());
}

TEST(DatapathEquivalenceTest, MultiReaderDrainNewForKeepsUnseenTuples) {
  // With a second, slower reader the stealing fast path must not engage:
  // tuples stay until everyone has seen them.
  Basket b(Basket::MakeBasketTable("r", TwoIntSchema()));
  size_t fast = b.RegisterReader();
  size_t slow = b.RegisterReader();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(b.Append({Value::Int64(i), Value::Int64(i)}, i).ok());
  }
  TablePtr fast_batch = b.DrainNewFor(fast);
  EXPECT_EQ(fast_batch->num_rows(), 6u);
  EXPECT_EQ(b.size(), 6u);  // slow reader hasn't seen them
  TablePtr slow_batch = b.DrainNewFor(slow);
  EXPECT_EQ(RowStrings(*fast_batch), RowStrings(*slow_batch));
  EXPECT_EQ(b.size(), 0u);  // everyone has; trimmed
}

TEST(DatapathEquivalenceTest, MoveAppendsMatchCopyAppends) {
  Schema user = TwoIntSchema();
  Basket copy_b(Basket::MakeBasketTable("c", user));
  Basket move_b(Basket::MakeBasketTable("m", user));

  Table result("res", user);
  for (int i = 0; i < 10; ++i) {
    result.column(0)->AppendInt64(i);
    result.column(1)->AppendInt64(100 - i);
  }
  ASSERT_TRUE(copy_b.AppendStamped(result, 5).ok());
  ASSERT_TRUE(move_b.AppendStampedMove(std::move(result), 5).ok());
  EXPECT_EQ(result.num_rows(), 0u);  // buffers moved out
  EXPECT_EQ(RowStrings(*copy_b.PeekSnapshot()),
            RowStrings(*move_b.PeekSnapshot()));

  // Same for the carries-ts flavour.
  Basket copy_ts(Basket::MakeBasketTable("ct", user));
  Basket move_ts(Basket::MakeBasketTable("mt", user));
  Table with_ts("res_ts", copy_ts.schema());
  for (int i = 0; i < 10; ++i) {
    with_ts.column(0)->AppendInt64(i);
    with_ts.column(1)->AppendInt64(i * 3);
    with_ts.column(2)->AppendInt64(1000 + i);  // ts column
  }
  ASSERT_TRUE(copy_ts.AppendWithTs(with_ts).ok());
  ASSERT_TRUE(move_ts.AppendWithTsMove(std::move(with_ts)).ok());
  EXPECT_EQ(RowStrings(*copy_ts.PeekSnapshot()),
            RowStrings(*move_ts.PeekSnapshot()));
}

TEST(DatapathEquivalenceTest, EngineIngestSurfacesMatch) {
  // Row, row-batch, table and columnar ingest all end in IngestColumns: for
  // every processing strategy they must deliver the same results and count
  // the same tuples. The int64 `d` values widen to the double column.
  Schema schema({{"x", DataType::kInt64}, {"d", DataType::kDouble}});
  constexpr int kRows = 10;
  std::vector<Row> rows;
  for (int i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int64(i), Value::Int64(i * 3)});
  }
  enum class Surface { kIngest, kIngestBatch, kIngestTable, kIngestColumns };

  auto run = [&](ProcessingStrategy strategy, Surface surface) {
    EngineOptions opts;
    opts.use_wall_clock = false;  // every ts stamps 0: rows compare exactly
    Engine engine(opts);
    EXPECT_TRUE(engine.ExecuteSql("create basket r (x int, d double)").ok());
    QueryOptions qopts;
    qopts.strategy = strategy;
    // Disjoint basket predicates: the chained strategy's shape.
    std::vector<std::shared_ptr<CollectingSink>> sinks;
    for (const char* pred : {"r.x < 4", "r.x >= 4"}) {
      auto q = engine.SubmitContinuousQuery(
          "q" + std::to_string(sinks.size()),
          std::string("select x, d from [select * from r where ") + pred +
              "] as s",
          qopts);
      EXPECT_TRUE(q.ok()) << q.status().ToString();
      if (!q.ok()) return std::vector<std::string>{};
      sinks.push_back(std::make_shared<CollectingSink>());
      EXPECT_TRUE(engine.Subscribe(*q, sinks.back()).ok());
    }
    switch (surface) {
      case Surface::kIngest:
        for (const Row& row : rows) EXPECT_TRUE(engine.Ingest("r", row).ok());
        break;
      case Surface::kIngestBatch:
        EXPECT_TRUE(engine.IngestBatch("r", rows).ok());
        break;
      case Surface::kIngestTable: {
        Table table("t", schema);
        for (const Row& row : rows) EXPECT_TRUE(table.AppendRow(row).ok());
        EXPECT_TRUE(engine.IngestTable("r", table).ok());
        break;
      }
      case Surface::kIngestColumns: {
        ColumnBatch batch(schema);
        for (int i = 0; i < kRows; ++i) {
          batch.column(0).AppendInt64(i);
          batch.column(1).AppendDouble(i * 3.0);
        }
        EXPECT_TRUE(engine.IngestColumns("r", std::move(batch)).ok());
        // Moved into one basket or copied into every private replica, the
        // batch comes back empty either way.
        EXPECT_EQ(batch.num_rows(), 0u);
        break;
      }
    }
    engine.Drain();
    EXPECT_EQ(engine.tuples_ingested(), kRows);
    std::vector<std::string> out;
    for (size_t q = 0; q < sinks.size(); ++q) {
      for (const Row& row : sinks[q]->TakeRows()) {
        std::string s = "q" + std::to_string(q) + ":";
        for (const Value& v : row) s += v.ToString() + "|";
        out.push_back(std::move(s));
      }
    }
    return out;
  };

  for (ProcessingStrategy strategy :
       {ProcessingStrategy::kSharedBaskets,
        ProcessingStrategy::kSeparateBaskets, ProcessingStrategy::kChained}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    std::vector<std::string> want = run(strategy, Surface::kIngest);
    EXPECT_EQ(want.size(), static_cast<size_t>(kRows));
    EXPECT_EQ(run(strategy, Surface::kIngestBatch), want);
    EXPECT_EQ(run(strategy, Surface::kIngestTable), want);
    EXPECT_EQ(run(strategy, Surface::kIngestColumns), want);
  }
}

TEST(DatapathEquivalenceTest, GeneratorColumnarFillMatchesRowFill) {
  std::vector<ColumnSpec> specs(3);
  specs[0].type = DataType::kInt64;
  specs[1].type = DataType::kDouble;
  specs[2].type = DataType::kString;
  UniformRowGenerator row_gen(specs, /*seed=*/42);
  UniformRowGenerator col_gen(specs, /*seed=*/42);

  std::vector<Row> rows = row_gen.NextBatch(64);
  ColumnBatch batch(*col_gen.schema());
  col_gen.NextBatchColumns(64, &batch);

  ASSERT_EQ(batch.num_rows(), rows.size());
  std::string line;
  for (size_t r = 0; r < rows.size(); ++r) {
    FormatCsvLine(batch, r, &line);
    EXPECT_EQ(line, FormatCsvRow(rows[r])) << "row " << r;
  }
}

// --- equivalence: SIMD kernels and fused plans -----------------------------

TEST(DatapathKernelTest, Avx2SelectMatchesScalar) {
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    ints.push_back(static_cast<int64_t>(state >> 16) % 1000 - 500);
    doubles.push_back(static_cast<double>(static_cast<int64_t>(state % 2001) -
                                          1000) /
                      8.0);
  }
  doubles[17] = std::numeric_limits<double>::quiet_NaN();  // never qualifies

  std::vector<size_t> scalar_out(ints.size());
  std::vector<size_t> simd_out(ints.size());
  size_t ns = kernel::SelectRangeInt64Scalar(ints.data(), -250, 250, 0,
                                             ints.size(), scalar_out.data());
  size_t nv = kernel::SelectRangeInt64(ints.data(), -250, 250, 0, ints.size(),
                                       simd_out.data());
  ASSERT_EQ(ns, nv);
  scalar_out.resize(ns);
  simd_out.resize(nv);
  EXPECT_EQ(scalar_out, simd_out);

  scalar_out.assign(doubles.size(), 0);
  simd_out.assign(doubles.size(), 0);
  ns = kernel::SelectRangeDoubleScalar(doubles.data(), -50.0, 50.0, 0,
                                       doubles.size(), scalar_out.data());
  nv = kernel::SelectRangeDouble(doubles.data(), -50.0, 50.0, 0,
                                 doubles.size(), simd_out.data());
  ASSERT_EQ(ns, nv);
  scalar_out.resize(ns);
  simd_out.resize(nv);
  EXPECT_EQ(scalar_out, simd_out);
}

// Filter under a projection or a scalar aggregate, run on the interpreter.
// The interpreter has no fused paths: these shapes execute as plain filter,
// project and aggregate nodes, and must still match a hand-computed
// reference (the specializer's fused kernels are pinned against the
// interpreter in specialize_test.cc).
class FusedPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateRelation("t",
                                    Schema({{"a", DataType::kInt64},
                                            {"b", DataType::kInt64}}),
                                    RelationKind::kTable)
                    .ok());
    input_ = std::make_shared<Table>(
        "t", Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
    for (int i = 0; i < 100; ++i) {
      input_->column(0)->AppendInt64(i);
      input_->column(1)->AppendInt64(i * 7 % 13);
    }
    input_->column(1)->AppendNull();
    input_->column(0)->AppendInt64(50);  // in range, null b
  }

  Result<TablePtr> Run(const std::string& sql) {
    auto stmt = sql::ParseStatement(sql);
    if (!stmt.ok()) return stmt.status();
    sql::Planner planner(&catalog_);
    DC_ASSIGN_OR_RETURN(sql::CompiledQuery q,
                        planner.CompileSelect(*stmt->select));
    PlanBindings bindings{{"t", input_}};
    return ExecutePlan(*q.plan, bindings);
  }

  Catalog catalog_;
  TablePtr input_;
};

TEST_F(FusedPlanTest, FusedProjectMatchesReference) {
  // Project(Filter(Scan)) with plain column refs.
  auto got = Run("select b, a from t where a >= 10 and a <= 20");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ((*got)->num_rows(), 11u);
  for (size_t i = 0; i < 11; ++i) {
    int64_t a = static_cast<int64_t>(i) + 10;
    EXPECT_EQ((*got)->column(1)->Int64At(i), a);
    EXPECT_EQ((*got)->column(0)->Int64At(i), a * 7 % 13);
  }
}

TEST_F(FusedPlanTest, FusedProjectCarriesNulls) {
  auto got = Run("select b from t where a = 50");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Two rows with a == 50: the original (b = 350 % 13) and the null-b row.
  ASSERT_EQ((*got)->num_rows(), 2u);
  EXPECT_EQ((*got)->column(0)->Int64At(0), 50 * 7 % 13);
  EXPECT_TRUE((*got)->column(0)->IsNull(1));
}

TEST_F(FusedPlanTest, FusedAggregateMatchesReference) {
  auto got = Run(
      "select count(*), sum(b), min(a), max(a) from t "
      "where a >= 10 and a <= 20");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  int64_t want_sum = 0;
  for (int64_t a = 10; a <= 20; ++a) want_sum += a * 7 % 13;
  ASSERT_EQ((*got)->num_rows(), 1u);
  // count is int64; sum/min/max finalize to double (AggPartial::Finalize).
  EXPECT_EQ((*got)->column(0)->Int64At(0), 11);
  EXPECT_DOUBLE_EQ((*got)->column(1)->DoubleAt(0),
                   static_cast<double>(want_sum));
  EXPECT_DOUBLE_EQ((*got)->column(2)->DoubleAt(0), 10.0);
  EXPECT_DOUBLE_EQ((*got)->column(3)->DoubleAt(0), 20.0);
}

TEST_F(FusedPlanTest, FusedCountStarSkipsNothing) {
  // count(*) over a filter counts selected positions, nulls included.
  auto got = Run("select count(*), count(b) from t where a = 50");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ((*got)->column(0)->Int64At(0), 2);  // both rows
  EXPECT_EQ((*got)->column(1)->Int64At(0), 1);  // null b not counted
}

}  // namespace
}  // namespace datacell
