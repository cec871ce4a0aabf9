package repro.prolog

/** Syntactic unification over [[Term]]s, for [[ReferenceSolver]].
  *
  * No occurs check, matching SWI-Prolog's default behaviour (the paper's rule
  * sets never create cyclic terms).
  */
object Unify {

  /** Unify `a` and `b` under `s`; Some(extended substitution) on success. */
  def unify(a: Term, b: Term, s: Subst): Option[Subst] = {
    val ta = s.walk(a)
    val tb = s.walk(b)
    (ta, tb) match {
      case (Var(x), Var(y)) if x == y          => Some(s)
      case (Var(x), t)                         => Some(s.bind(x, t))
      case (t, Var(y))                         => Some(s.bind(y, t))
      case (Atom(x), Atom(y)) if x == y        => Some(s)
      case (Num(x), Num(y)) if x == y          => Some(s)
      case (Struct(f, as), Struct(g, bs)) if f == g && as.size == bs.size =>
        var cur = s
        var i = 0
        while (i < as.size) {
          unify(as(i), bs(i), cur) match {
            case Some(next) => cur = next
            case None       => return None
          }
          i += 1
        }
        Some(cur)
      case _ => None
    }
  }
}
