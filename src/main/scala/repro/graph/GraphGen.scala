package repro.graph

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic generators for the paper's four evaluation graphs (§ VII-B,
  * Table III). All generators are deterministic in (size, seed): randomness
  * comes from `xxhash64` over the row id, never from `rand()`, so the same
  * call always produces the same graph (the DuckDB oracle and raw-vs-view
  * equivalence tests rely on this).
  *
  * Scale mapping (sf = 1.0 corresponds to the paper's sizes):
  *  - prov summarized:  7M vertices / 34M edges
  *  - dblp:             5.1M vertices / 24.7M edges
  *  - soc-livejournal:  4.8M vertices / 68.9M edges
  *  - roadnet-usa:      23.9M vertices / 28.8M edges
  * Tests use sf ≈ 2e-4, benches sf ≈ 2e-3..1e-2.
  */
object GraphGen {

  private val Big = 1L << 40

  /** Deterministic uniform double in [0, 1) from hashed columns. */
  private def prand(seed: Long, cols: Column*): Column =
    pmod(xxhash64((cols :+ lit(seed)): _*), lit(Big)).cast("double") / lit(Big.toDouble)

  /** Deterministic uniform long in [0, n) from hashed columns. */
  private def pint(seed: Long, n: Column, cols: Column*): Column =
    pmod(xxhash64((cols :+ lit(seed)): _*), n.cast("long"))

  /** Approximate Zipf rank in [0, n): power-law with exponent `alpha`.
    * Heavy-headed (rank 0 very likely) — used for author productivity.
    */
  private def zipf(seed: Long, n: Long, alpha: Double, cols: Column*): Column = {
    val u = prand(seed, cols: _*) + lit(1e-12)
    least(lit(n - 1), (pow(u, lit(-1.0 / alpha)) - lit(1.0)).cast("long"))
  }

  /** Power-law rank in [0, n) with density ∝ r^(1/gamma - 1) (Chung-Lu
    * style endpoint sampling): rank-r vertices get degree ∝ r^(-(1-1/gamma)),
    * a realistic heavy tail whose head does not swallow the distribution.
    */
  private def powerLawRank(seed: Long, n: Long, gamma: Double, cols: Column*): Column =
    least(lit(n - 1), (pow(prand(seed, cols: _*), lit(gamma)) * n).cast("long"))

  // -------------------------------------------------------------------------
  // Provenance graph (heterogeneous; the paper's running example)
  // -------------------------------------------------------------------------

  /** Stages per provenance pipeline. */
  private val Stages = 8

  /** Summarized provenance graph: jobs and files only.
    *
    * Jobs are organized in pipelines of `Stages` stages. Each job writes
    * `fanOut` files; each file is read by `readers` jobs, mostly the next
    * stage(s) of the same pipeline (with probability `crossFrac` a uniformly
    * random job, creating cross-pipeline lineage). Because all files written
    * by a job funnel into a small successor set, the job-to-job 2-hop
    * connector collapses the graph by roughly
    * `fanOut * (1 + readers) / successors` — the paper's ~2 orders of
    * magnitude for its production graph (§ VII-E).
    *
    * Edge ts grows with pipeline stage so Q4's path-max aggregation is
    * non-trivial.
    */
  def provSummarized(
      spark: SparkSession,
      nJobs: Long,
      fanOut: Int = 8,
      readers: Int = 3,
      crossFrac: Double = 0.05,
      seed: Long = 11,
  ): PropertyGraph = {
    require(nJobs >= Stages, "need at least one full pipeline")
    val nFiles = nJobs * fanOut

    val jobs = spark.range(0, nJobs).select(
      col("id"),
      lit("Job").as("vtype"),
      round(lit(1.0) + prand(seed, col("id")) * 9.0, 3).as("cpu"),
      concat(lit("pipeline_"), (col("id") / Stages).cast("long")).as("grp"))

    val files = spark.range(0, nFiles).select(
      (col("id") + nJobs).as("id"),
      lit("File").as("vtype"),
      lit(0.0).as("cpu"),
      lit("storage").as("grp"))

    // File i is written by job i / fanOut.
    val fileMeta = spark.range(0, nFiles).select(
      col("id").as("fidx"),
      (col("id") + nJobs).as("fid"),
      (col("id") / fanOut).cast("long").as("writer"))
      .withColumn("stage", pmod(col("writer"), lit(Stages.toLong)))
      .withColumn("pipeStart", col("writer") - col("stage"))

    val writes = fileMeta.select(
      col("writer").as("src"),
      col("fid").as("dst"),
      lit("WRITES_TO").as("etype"),
      (col("stage") * 100 + pint(seed + 1, lit(100L), col("fidx"))).as("ts"))

    // Readers: next-stage job(s) of the same pipeline, or a random job.
    val readsBase = fileMeta
      .withColumn("r", explode(sequence(lit(0), lit(readers - 1))))
      .withColumn("isCross", prand(seed + 2, col("fidx"), col("r")) < crossFrac)
      .withColumn("succOffset", col("stage") + lit(1) + pint(seed + 3, lit(2L), col("fidx"), col("r")))
      .withColumn("reader",
        when(col("isCross") || col("succOffset") >= Stages,
          pint(seed + 4, lit(nJobs), col("fidx"), col("r")))
        .otherwise(col("pipeStart") + col("succOffset")))
      .filter(col("reader") =!= col("writer"))

    val reads = readsBase.select(
      col("fid").as("src"),
      col("reader").as("dst"),
      lit("IS_READ_BY").as("etype"),
      ((col("stage") + 1) * 100 + pint(seed + 5, lit(100L), col("fidx"), col("r"))).as("ts"))
      .distinct()

    PropertyGraph(jobs.union(files), writes.union(reads))
  }

  /** Raw provenance graph: the summarized graph plus tasks and machines,
    * which dominate it — the schema-level summarizer then removes them,
    * reproducing the large effective-size reduction of Fig. 6.
    */
  def provRaw(
      spark: SparkSession,
      nJobs: Long,
      tasksPerJob: Int = 200,
      nMachines: Long = 64,
      fanOut: Int = 8,
      readers: Int = 3,
      crossFrac: Double = 0.05,
      seed: Long = 11,
  ): PropertyGraph = {
    val summarized = provSummarized(spark, nJobs, fanOut, readers, crossFrac, seed)
    val taskBase = nJobs * (1 + fanOut) // ids after jobs and files
    val nTasks = nJobs * tasksPerJob
    val machineBase = taskBase + nTasks

    val tasks = spark.range(0, nTasks).select(
      (col("id") + taskBase).as("id"),
      lit("Task").as("vtype"),
      round(prand(seed + 6, col("id")), 3).as("cpu"),
      lit("exec").as("grp"))

    val machines = spark.range(0, nMachines).select(
      (col("id") + machineBase).as("id"),
      lit("Machine").as("vtype"),
      lit(0.0).as("cpu"),
      lit("rack").as("grp"))

    val taskMeta = spark.range(0, nTasks).select(
      col("id").as("tidx"),
      (col("id") + taskBase).as("tid"),
      (col("id") / tasksPerJob).cast("long").as("job"),
      pmod(col("id"), lit(tasksPerJob.toLong)).as("slot"))

    val spawns = taskMeta.select(
      col("job").as("src"), col("tid").as("dst"),
      lit("SPAWNS").as("etype"),
      pint(seed + 7, lit(1000L), col("tidx")).as("ts"))

    // Each task (except the last of its job) transfers to the next task.
    val transfers = taskMeta
      .filter(col("slot") < tasksPerJob - 1)
      .select(
        col("tid").as("src"), (col("tid") + 1).as("dst"),
        lit("TRANSFERS_TO").as("etype"),
        pint(seed + 8, lit(1000L), col("tidx")).as("ts"))

    val runsOn = taskMeta.select(
      col("tid").as("src"),
      (pint(seed + 9, lit(nMachines), col("tidx")) + machineBase).as("dst"),
      lit("RUNS_ON").as("etype"),
      pint(seed + 10, lit(1000L), col("tidx")).as("ts"))

    PropertyGraph(
      summarized.vertices.union(tasks).union(machines),
      summarized.edges.union(spawns).union(transfers).union(runsOn))
  }

  // -------------------------------------------------------------------------
  // dblp-net (heterogeneous publications network)
  // -------------------------------------------------------------------------

  private val AuthorsPerPub = 3
  private val ZipfAlpha = 1.4

  /** dblp-like network: authors, publications, venues. Author productivity is
    * Zipf-distributed (power-law collaboration, App. Fig. 8); repeated
    * collaborations make the author-to-author 2-hop connector ~1 order of
    * magnitude smaller than the summarized graph (Fig. 6).
    *
    * Edge types: WROTE (author→pub), WRITTEN_BY (pub→author),
    * PUBLISHED_IN (pub→venue). `includeVenues=false` yields the summarized
    * graph of § VII-B.
    */
  def dblp(
      spark: SparkSession,
      nAuthors: Long,
      includeVenues: Boolean = true,
      seed: Long = 21,
  ): PropertyGraph = {
    val nPubs = math.max(1L, (nAuthors * 1.5).toLong)
    val nVenues = math.max(1L, nAuthors / 100)
    val pubBase = nAuthors
    val venueBase = nAuthors + nPubs

    val authors = spark.range(0, nAuthors).select(
      col("id"), lit("Author").as("vtype"),
      round(prand(seed, col("id")) * 10, 3).as("cpu"),
      concat(lit("field_"), pint(seed + 1, lit(20L), col("id"))).as("grp"))

    val pubs = spark.range(0, nPubs).select(
      (col("id") + pubBase).as("id"),
      lit("Publication").as("vtype"),
      lit(0.0).as("cpu"),
      concat(lit("venue_"), pint(seed + 3, lit(nVenues), col("id"))).as("grp"))

    val venues = spark.range(0, nVenues).select(
      (col("id") + venueBase).as("id"), lit("Venue").as("vtype"),
      lit(0.0).as("cpu"), lit("venues").as("grp"))

    // Authorship incidences: every pub gets `AuthorsPerPub` Zipf-ranked
    // authors, localized within a hash block so collaborations repeat.
    val incidence = spark.range(0, nPubs)
      .select(col("id").as("pidx"), (col("id") + pubBase).as("pid"))
      .withColumn("a", explode(sequence(lit(0), lit(AuthorsPerPub - 1))))
      .withColumn("block", pint(seed + 4, lit(math.max(1L, nAuthors / 50)), col("pidx")))
      .withColumn("author",
        pmod(col("block") * 50 + zipf(seed + 5, 50L.min(nAuthors), ZipfAlpha, col("pidx"), col("a")),
          lit(nAuthors)))
      .select(col("pidx"), col("pid"), col("author")).distinct()

    val wrote = incidence.select(
      col("author").as("src"), col("pid").as("dst"),
      lit("WROTE").as("etype"), pint(seed + 6, lit(1000L), col("pidx"), col("author")).as("ts"))

    val writtenBy = incidence.select(
      col("pid").as("src"), col("author").as("dst"),
      lit("WRITTEN_BY").as("etype"), pint(seed + 7, lit(1000L), col("pidx"), col("author")).as("ts"))

    val publishedIn = spark.range(0, nPubs).select(
      (col("id") + pubBase).as("src"),
      (pint(seed + 8, lit(nVenues), col("id")) + venueBase).as("dst"),
      lit("PUBLISHED_IN").as("etype"),
      pint(seed + 9, lit(1000L), col("id")).as("ts"))

    if (includeVenues)
      PropertyGraph(authors.union(pubs).union(venues),
        wrote.union(writtenBy).union(publishedIn))
    else
      PropertyGraph(authors.union(pubs), wrote.union(writtenBy))
  }

  // -------------------------------------------------------------------------
  // Homogeneous networks
  // -------------------------------------------------------------------------

  private val AvgOutDeg = 14.0
  private val Gamma = 2.5

  /** soc-LiveJournal-like network: homogeneous, directed, power-law in- and
    * out-degrees (Chung-Lu endpoint sampling), avg out-degree ≈ `AvgOutDeg`.
    * In- and out-hub identities are decorrelated via an affine permutation
    * of the destination rank.
    */
  def socLivejournal(
      spark: SparkSession,
      nVertices: Long,
      seed: Long = 31,
  ): PropertyGraph = {
    // Oversample ~20% to compensate for hub-pair duplicates removed below.
    val nDraws = math.max(1L, (nVertices * AvgOutDeg * 1.2).toLong)

    val vertices = spark.range(0, nVertices).select(
      col("id"), lit("Node").as("vtype"),
      round(prand(seed, col("id")) * 10, 3).as("cpu"),
      concat(lit("region_"), pint(seed + 1, lit(32L), col("id"))).as("grp"))

    val edges = spark.range(0, nDraws)
      .select(
        powerLawRank(seed + 2, nVertices, Gamma, col("id")).as("src"),
        pmod(powerLawRank(seed + 3, nVertices, Gamma, col("id"), lit(13)) * 999983 + 31,
          lit(nVertices)).as("dst"))
      .filter(col("src") =!= col("dst"))
      .distinct()
      .select(col("src"), col("dst"), lit("LINK").as("etype"),
        pint(seed + 5, lit(1000L), col("src"), col("dst")).as("ts"))

    PropertyGraph(vertices, edges)
  }

  private val KeepProb = 0.6

  /** roadnet-usa-like network: 2D grid (side × side), each right/down edge
    * kept with probability `KeepProb` — near-uniform bounded degree,
    * E/V ≈ 2·KeepProb, no power law.
    */
  def roadnetUsa(
      spark: SparkSession,
      side: Long,
      seed: Long = 41,
  ): PropertyGraph = {
    val n = side * side
    val vertices = spark.range(0, n).select(
      col("id"), lit("Node").as("vtype"),
      round(prand(seed, col("id")) * 10, 3).as("cpu"),
      concat(lit("county_"), pint(seed + 1, lit(64L), col("id"))).as("grp"))

    val base = spark.range(0, n).select(
      col("id"),
      (col("id") / side).cast("long").as("row"),
      pmod(col("id"), lit(side)).as("colIdx"))

    val right = base.filter(col("colIdx") < side - 1)
      .filter(prand(seed + 2, col("id")) < KeepProb)
      .select(col("id").as("src"), (col("id") + 1).as("dst"))

    val down = base.filter(col("row") < side - 1)
      .filter(prand(seed + 3, col("id")) < KeepProb)
      .select(col("id").as("src"), (col("id") + side).as("dst"))

    val edges = right.union(down).select(
      col("src"), col("dst"), lit("ROAD").as("etype"),
      pint(seed + 4, lit(1000L), col("src"), col("dst")).as("ts"))

    PropertyGraph(vertices, edges)
  }
}
