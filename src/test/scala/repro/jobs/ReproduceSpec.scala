package repro.jobs

import java.io.ByteArrayOutputStream
import org.scalatest.funsuite.AnyFunSuite

/** The entry point's artifacts that run no Spark, and its argument checks. */
class ReproduceSpec extends AnyFunSuite {

  private def output(artifact: String): String = {
    val out = new ByteArrayOutputStream()
    Console.withOut(out)(Reproduce.run(artifact, None))
    out.toString("UTF-8")
  }

  test("catalog prints the § IV-B kHopConnector instantiations") {
    val lines = output("catalog").linesIterator.toSet
    for (k <- Seq(2, 4, 6, 8, 10))
      assert(lines.contains(s"(X='q_j1', Y='q_j2', XTYPE='Job', YTYPE='Job', K=$k)"), s"K=$k")
  }

  test("an unknown artifact fails with the list of known ones") {
    val e = intercept[IllegalArgumentException](Reproduce.run("fig8", None))
    assert(e.getMessage.contains("fig8"))
    Reproduce.artifacts.foreach(a => assert(e.getMessage.contains(a), a))
  }
}
