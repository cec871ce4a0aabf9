package repro.jobs

import java.io.{ByteArrayOutputStream, PrintStream}
import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.ViewCatalog

/** The entry point's artifacts that run no Spark, and its argument checks. */
class ReproduceSpec extends AnyFunSuite {

  private def output(artifact: String): String = {
    val out = new ByteArrayOutputStream()
    Console.withOut(new PrintStream(out, true, "UTF-8"))(Reproduce.run(artifact, None))
    out.toString("UTF-8")
  }

  test("catalog prints the § IV-B kHopConnector instantiations") {
    val lines = output("catalog").linesIterator.toSeq
    val listing = lines.filter(_.startsWith("(X="))
    assert(listing == Seq(2, 4, 6, 8, 10).map(k =>
      s"(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=$k)"))
    val heading = lines.indexWhere(_.startsWith("(X=")) - 1
    assert(heading >= 0 && lines(heading) == "== § IV-B: kHopConnector instantiations for the blast-radius query ==")
  }

  test("catalog holds every Table I and Table II class, each view as a MATCH query") {
    val catalog = ViewCatalog.run()
    def types(table: String) = catalog.filter(_.table == table).map(_.viewType).toSet
    // A same-edge-type connector needs a schema path of one edge type, which
    // the prov schemas lack; ViewEnumeratorSpec covers that template.
    assert(Set("k-hop same-vertex-type connector", "Same-vertex-type connector",
      "Source-to-sink connector").subsetOf(types("Table I")))
    assert(Set("Vertex-inclusion summarizer", "Edge-inclusion summarizer",
      "Vertex-removal summarizer", "Edge-removal summarizer").subsetOf(types("Table II")))
    catalog.foreach(r => assert(r.cypher.contains("MATCH"), r.instance))
  }

  test("an unknown artifact fails with the list of known ones") {
    val e = intercept[IllegalArgumentException](Reproduce.run("fig8", None))
    assert(e.getMessage.contains("fig8"))
    Reproduce.artifacts.foreach(a => assert(e.getMessage.contains(a), a))
  }
}
