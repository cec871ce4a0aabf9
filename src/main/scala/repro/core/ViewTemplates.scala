package repro.core

/** Kaskade's view-template library (paper § IV-B Lst. 3, App. A Lst. 5),
  * expressed as inference rules. Instantiations of these templates are the
  * candidate views.
  *
  * Deviations from the listings, per DESIGN.md:
  *  - `kHopConnector` uses `schemaKHopWalk` (k-length schema walks) so that
  *    cyclic schema traversals such as job→file→job→… are admitted — this is
  *    required to reproduce the § IV-B instantiation list (K=2,4,…,10).
  *  - endpoints are restricted to projected (RETURN) vertices, as § IV-B's
  *    narration prescribes.
  *  - `connectorSameVertexType`'s schema check is on the vertex *type* (the
  *    listing passes the vertex variables, which can never match a schema).
  *  - summarizer templates are normalized to enumerate removable/keepable
  *    type sets directly (the listing's ETYPE_REMOVE with an unbound negated
  *    goal is not executable under negation-as-failure).
  *  - the existence checks whose arguments are all bound by then
  *    (`queryPath(X, Y)`, `schemaPath(..)` and `schemaKHopWalk(XTYPE, YTYPE, K)`)
  *    are wrapped in `once/1`. Each derivation of such a check would repeat
  *    the same solution, so `once/1` drops duplicates, not candidates.
  */
object ViewTemplates {

  val connectors: String =
    """
    % k-hop connector between nodes X and Y.
    kHopConnector(X, Y, XTYPE, YTYPE, K) :-
      % query constraints
      queryVertexProjected(X), queryVertexProjected(Y), X \== Y,
      queryVertexType(X, XTYPE),
      queryVertexType(Y, YTYPE),
      queryKHopPath(X, Y, K),
      % schema constraints
      once(schemaKHopWalk(XTYPE, YTYPE, K)).

    % k-hop connector where all vertices are of the same type.
    kHopConnectorSameVertexType(X, Y, VTYPE, K) :-
      kHopConnector(X, Y, VTYPE, VTYPE, K).

    % Variable-length connector where all vertices are of the same type.
    connectorSameVertexType(X, Y, VTYPE) :-
      % query constraints
      queryVertexProjected(X), queryVertexProjected(Y), X \== Y,
      queryVertexType(X, VTYPE),
      queryVertexType(Y, VTYPE),
      once(queryPath(X, Y)),
      % schema constraints
      once(schemaPath(VTYPE, VTYPE)).

    % Source-to-sink variable-length connector.
    sourceToSinkConnector(X, Y) :-
      % query constraints
      queryVertexSource(X),
      queryVertexSink(Y),
      X \== Y,
      once(queryPath(X, Y)),
      % schema constraints
      queryVertexType(X, XTYPE), queryVertexType(Y, YTYPE),
      once(schemaPath(XTYPE, YTYPE)).

    % Connector via a path of a single edge type (Table I, row 3).
    sameEdgeTypeConnector(X, Y, ETYPE) :-
      queryVertexProjected(X), queryVertexProjected(Y), X \== Y,
      queryVertexType(X, XTYPE), queryVertexType(Y, YTYPE),
      once(queryPath(X, Y)),
      schemaPathVia(XTYPE, YTYPE, ETYPE).
    """

  val summarizers: String =
    """
    % Keep exactly the vertex types the query touches (schema-level filter).
    summarizerVertexInclusion(TYPES) :-
      setof(T, queryVertexType(_, T), TYPES).

    % Keep exactly the edge types the query touches.
    summarizerEdgeInclusion(ETYPES) :-
      setof(E, queryEdgeType(_, _, E), ETYPES).

    % A schema vertex type no query vertex uses can be removed.
    summarizerRemoveVertices(VTYPE_REMOVE) :-
      schemaVertex(VTYPE_REMOVE),
      not(queryVertexType(_, VTYPE_REMOVE)).

    % A schema edge type no query edge uses can be removed.
    summarizerRemoveEdges(ETYPE_REMOVE) :-
      schemaEdgeType(ETYPE_REMOVE),
      not(queryEdgeType(_, _, ETYPE_REMOVE)).
    """

  /** Guard clauses so that predicates with no facts for a given
    * (query, schema) pair fail instead of raising existence errors.
    */
  val declarations: String =
    """
    queryVertex(xNoSuchVertex) :- fail.
    queryVertexType(xNoSuchVertex, xNoSuchType) :- fail.
    queryEdge(xNoSuchVertex, xNoSuchVertex) :- fail.
    queryEdgeType(xNoSuchVertex, xNoSuchVertex, xNoSuchType) :- fail.
    queryVariableLengthPath(xNoSuchVertex, xNoSuchVertex, 0, 0) :- fail.
    queryVertexProjected(xNoSuchVertex) :- fail.
    schemaVertex(xNoSuchType) :- fail.
    schemaEdge(xNoSuchType, xNoSuchType, xNoSuchType) :- fail.
    property(xNoSuchProp, xNoSuchVertex, 0) :- fail.
    """

  val all: String = declarations + connectors + summarizers
}
