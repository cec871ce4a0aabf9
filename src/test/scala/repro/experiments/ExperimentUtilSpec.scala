package repro.experiments

import org.scalatest.funsuite.AnyFunSuite

class ExperimentUtilSpec extends AnyFunSuite {

  test("median of odd-sized sequence") {
    assert(ExperimentUtil.median(Seq(3.0, 1.0, 2.0)) == 2.0)
  }

  test("median of even-sized sequence averages the middle pair") {
    assert(ExperimentUtil.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("median of empty sequence is 0") {
    assert(ExperimentUtil.median(Nil) == 0.0)
  }

  test("timeMs returns the body's value and a non-negative duration") {
    val (v, t) = ExperimentUtil.timeMs(runs = 3)(21 * 2)
    assert(v == 42)
    assert(t >= 0.0)
  }

  test("timeMs rejects fewer than one run instead of timing nothing") {
    val e = intercept[IllegalArgumentException](ExperimentUtil.timeMs(runs = 0)(42))
    assert(e.getMessage.contains("at least one run"))
  }

  test("table renders aligned fixed-width rows") {
    val t = ExperimentUtil.table(Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = t.split("\n")
    assert(lines.length == 4)
    assert(lines.map(_.length).distinct.size == 1) // all rows same width
    assert(lines(0).contains("a") && lines(3).contains("333"))
  }

  test("fmtCount uses k/M/G suffixes") {
    assert(ExperimentUtil.fmtCount(512L) == "512.0")
    assert(ExperimentUtil.fmtCount(2_500L) == "2.50k")
    assert(ExperimentUtil.fmtCount(3_400_000L) == "3.40M")
    assert(ExperimentUtil.fmtCount(16_400_000_000L.toDouble) == "16.40G")
  }
}
