package repro.prolog

import scala.collection.mutable

/** Clause store indexed by (functor, arity), preserving insertion order
  * (Prolog clause-selection order is source order).
  */
final class Database {
  private val store = mutable.LinkedHashMap.empty[(String, Int), Vector[Clause]]

  def add(c: Clause): Unit = {
    val key = (c.head.functor, c.head.arity)
    store.update(key, store.getOrElse(key, Vector.empty) :+ c)
  }

  /** Parse and load a program (facts and rules) into the database. */
  def consult(program: String): Unit = Parser.parseProgram(program).foreach(add)

  def clausesFor(functor: String, arity: Int): Vector[Clause] =
    store.getOrElse((functor, arity), Vector.empty)

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
