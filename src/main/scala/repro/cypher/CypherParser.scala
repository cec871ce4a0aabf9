package repro.cypher

/** Parser for the Cypher `MATCH ... RETURN` subset of the paper's queries.
  *
  * Grammar (case-insensitive keywords):
  * {{{
  *   query    := MATCH pattern (',' pattern)* RETURN item (',' item)*
  *   pattern  := node (rel node)*
  *   node     := '(' ident (':' ident)? ')'
  *   rel      := '-[' ident? (':' ident)? ('*' int '..' int)? ']->'
  *   item     := ident (AS ident)?
  * }}}
  */
object CypherParser {

  final case class CypherError(message: String) extends RuntimeException(message)

  private final class Scanner(input: String) {
    private var i = 0
    private val n = input.length

    def skipWs(): Unit = { while (i < n && input.charAt(i).isWhitespace) i += 1 }

    def eof: Boolean = { skipWs(); i >= n }

    def peekChar: Char = { skipWs(); if (i < n) input.charAt(i) else '\u0000' }

    def tryConsume(s: String): Boolean = {
      skipWs()
      if (input.regionMatches(true, i, s, 0, s.length)) { i += s.length; true } else false
    }

    def consume(s: String): Unit =
      if (!tryConsume(s)) throw CypherError(s"expected '$s' at: ...${input.substring(math.min(i, n))}")

    def ident(): String = {
      skipWs()
      val start = i
      if (i < n && (input.charAt(i).isLetter || input.charAt(i) == '_')) {
        i += 1
        while (i < n && (input.charAt(i).isLetterOrDigit || input.charAt(i) == '_')) i += 1
        input.substring(start, i)
      } else throw CypherError(s"expected identifier at: ...${input.substring(math.min(i, n))}")
    }

    def peekKeyword(kw: String): Boolean = {
      skipWs()
      input.regionMatches(true, i, kw, 0, kw.length) &&
        (i + kw.length >= n || !input.charAt(i + kw.length).isLetterOrDigit)
    }

    def int(): Int = {
      skipWs()
      val start = i
      while (i < n && input.charAt(i).isDigit) i += 1
      if (i == start) throw CypherError(s"expected integer at: ...${input.substring(math.min(i, n))}")
      input.substring(start, i).toInt
    }
  }

  /** Parse a query's MATCH/RETURN portion into a [[QueryGraph]]. */
  def parse(query: String): QueryGraph = {
    val sc = new Scanner(query)
    sc.consume("MATCH")

    val labels = collection.mutable.LinkedHashMap.empty[String, Option[String]]
    val edges = Seq.newBuilder[EdgePat]
    val varPaths = Seq.newBuilder[VarLengthPat]

    def node(): String = {
      sc.consume("(")
      val name = sc.ident()
      val label = if (sc.tryConsume(":")) Some(sc.ident()) else None
      sc.consume(")")
      labels.get(name) match {
        case Some(existing) =>
          (existing, label) match {
            case (Some(a), Some(b)) if a != b =>
              throw CypherError(s"conflicting labels for $name: $a vs $b")
            case (None, some @ Some(_)) => labels.update(name, some)
            case _                      => ()
          }
        case None => labels.update(name, label)
      }
      name
    }

    def pattern(): Unit = {
      var src = node()
      while (sc.peekChar == '-') {
        sc.consume("-[")
        // Optional relationship variable name (not a keyword/type).
        var etype: Option[String] = None
        var bounds: Option[(Int, Int)] = None
        if (sc.peekChar != ':' && sc.peekChar != '*' && sc.peekChar != ']') sc.ident() // rel var, unused
        if (sc.tryConsume(":")) etype = Some(sc.ident())
        if (sc.tryConsume("*")) {
          val lo = sc.int(); sc.consume(".."); val hi = sc.int()
          bounds = Some((lo, hi))
        }
        sc.consume("]->")
        val dst = node()
        bounds match {
          case Some((lo, hi)) => varPaths += VarLengthPat(src, dst, etype, lo, hi)
          case None           => edges += EdgePat(src, dst, etype)
        }
        src = dst
      }
    }

    pattern()
    // Comma-separated additional patterns until RETURN.
    var more = true
    while (more) {
      if (sc.peekKeyword("RETURN")) more = false
      else if (sc.tryConsume(",")) pattern()
      else if (sc.eof) more = false
      else throw CypherError("expected ',' or RETURN in MATCH clause")
    }

    val returns = Seq.newBuilder[ReturnItem]
    if (sc.tryConsume("RETURN")) {
      var go = true
      while (go) {
        val v = sc.ident()
        val alias = if (sc.peekKeyword("AS")) { sc.consume("AS"); Some(sc.ident()) } else None
        returns += ReturnItem(v, alias)
        go = sc.tryConsume(",")
      }
    }
    if (!sc.eof) throw CypherError("trailing input after RETURN clause")

    val qg = QueryGraph(labels.toMap, edges.result(), varPaths.result(), returns.result())
    val known = qg.vertexLabels.keySet
    qg.returns.foreach { r =>
      if (!known(r.variable)) throw CypherError(s"RETURN references unknown vertex ${r.variable}")
    }
    qg
  }
}
