package repro

import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import scala.util.Using

/** Source files stay plain text: git treats a file holding a NUL byte as
  * binary and shows no diffs for it.
  */
class SourceTextSpec extends AnyFunSuite {

  test("no file under src/ contains a NUL byte") {
    val files =
      Using.resource(Files.walk(Paths.get("src")))(_.iterator.asScala.filter(Files.isRegularFile(_)).toList)
    assert(files.nonEmpty)
    val withNul = files.filter(f => Files.readAllBytes(f).contains(0.toByte))
    assert(withNul.isEmpty, s"NUL bytes in ${withNul.mkString(", ")}")
  }
}
