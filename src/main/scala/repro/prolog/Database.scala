package repro.prolog

import scala.collection.mutable

/** Clause store indexed by (functor, arity), preserving insertion order
  * (Prolog clause-selection order is source order). Each clause is compiled
  * once, when it is added, into the template that the [[Solver]] copies.
  */
final class Database {
  private val store = mutable.LinkedHashMap.empty[(String, Int), Vector[Compiled]]

  def add(c: Clause): Unit = {
    val key = (c.head.functor, c.head.arity)
    store.update(key, store.getOrElse(key, Vector.empty) :+ Compiled(c))
  }

  /** Parse and load a program (facts and rules) into the database. */
  def consult(program: String): Unit = Parser.parseProgram(program).foreach(add)

  def clausesFor(functor: String, arity: Int): Vector[Clause] =
    store.get((functor, arity)).fold(Vector.empty[Clause])(_.map(_.clause))

  /** The compiled clauses of a predicate in source order; null if it has none. */
  private[prolog] def compiledFor(functor: String, arity: Int): Vector[Compiled] =
    store.getOrElse((functor, arity), null)

  def contains(functor: String, arity: Int): Boolean = store.contains((functor, arity))

  def size: Int = store.valuesIterator.map(_.size).sum

  /** Shallow copy: a new index over the same immutable clause vectors, so
    * clauses added to the copy never reach this database (used to extend a
    * base rule library with per-query facts).
    */
  def copy(): Database = {
    val db = new Database
    store.foreach { case (k, v) => db.store.update(k, v) }
    db
  }
}

/** A clause term with its variables numbered 0, 1, … in order of first
  * occurrence, head first: the solver renames it apart by giving each slot a
  * fresh variable. A subterm without variables is kept as is and shared by
  * every copy.
  */
private[prolog] sealed trait Template
private[prolog] final case class Ground(term: Term) extends Template
private[prolog] final case class Slot(index: Int) extends Template
private[prolog] final case class Compound(functor: String, args: Vector[Template]) extends Template

/** A compiled clause: the head's arguments, the body goals and the number of
  * variable slots.
  */
private[prolog] final class Compiled(val clause: Clause, val head: Vector[Template], val body: Array[Template],
    val slots: Int)

private[prolog] object Compiled {
  def apply(c: Clause): Compiled = {
    val index = mutable.LinkedHashMap.empty[String, Int]
    def compile(t: Term): Template = t match {
      case Var(n) => Slot(index.getOrElseUpdate(n, index.size))
      case Struct(f, as) =>
        val cs = as.map(compile)
        if (cs.forall(_.isInstanceOf[Ground])) Ground(t) else Compound(f, cs)
      case other => Ground(other)
    }
    val head = c.head.args.map(compile)
    val body = c.body.map(compile).toArray
    new Compiled(c, head, body, index.size)
  }
}

object Database {

  /** Library predicates available to every rule set, defined in Prolog itself. */
  val preludeSource: String =
    """
    member(X, [X|_]).
    member(X, [_|T]) :- member(X, T).

    append([], L, L).
    append([H|T], L, [H|R]) :- append(T, L, R).

    reverse(L, R) :- reverse_acc(L, [], R).
    reverse_acc([], A, A).
    reverse_acc([H|T], A, R) :- reverse_acc(T, [H|A], R).

    foldl(_, [], A, A).
    foldl(G, [X|Xs], A0, A) :- call(G, X, A0, A1), foldl(G, Xs, A1, A).

    convlist(_, [], []).
    convlist(G, [X|Xs], [Y|Ys]) :- call(G, X, Y), convlist(G, Xs, Ys).
    convlist(G, [X|Xs], Ys) :- not(call(G, X, _)), convlist(G, Xs, Ys).

    select(X, [X|T], T).
    select(X, [H|T], [H|R]) :- select(X, T, R).
    """

  /** Fresh database preloaded with the prelude. */
  def withPrelude(): Database = {
    val db = new Database
    db.consult(preludeSource)
    db
  }
}
