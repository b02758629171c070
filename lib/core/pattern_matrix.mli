(** Maranget-style pattern matrices: case analysis and exhaustiveness over
    constructor patterns.

    A {e pattern} here is a term whose applications are constructor
    applications and whose variables are wildcards; a {e row} is one
    pattern per column. The one question asked of a matrix [P] is its
    case tree under a query vector [q]: split [q] column by column,
    specializing [P] by each constructor a column's sort declares wherever
    some row discriminates there (Maranget, {e Warnings for pattern
    matching}, JFP 2007). Each leaf of the tree lists the rows that match
    every instance of it; a leaf no row matches is a missing case, and the
    matrix is exhaustive when the all-wildcard query has none.

    The sufficient-completeness report ({!Completeness}, which ADT020 and
    the prompting system {!Heuristics} read) asks for the case tree of each
    observer's defining left-hand sides.

    Caveats, enforced by construction rather than checks:

    - Rows must be {e left-linear}: a repeated variable is treated as a
      plain wildcard, which over-approximates what the row matches.
      Callers that admit non-linear rows must compensate ({!Completeness}
      excludes them from the matrix and labels the cases they match).
    - Patterns whose head is not a constructor of the matrix's
      specification — an observer application, [error], [if-then-else] —
      never match a ground constructor vector and never specialize: such
      rows contribute nothing to coverage.
    - A sort with no declared constructors (a parameter sort such as
      [Item]) is never split: only wildcard rows cover it. *)

type t
(** A matrix: column sorts plus rows, against a fixed specification. *)

val create : Spec.t -> sorts:Sort.t list -> rows:Term.t list list -> t
(** Raises [Invalid_argument] when a row's width differs from the number
    of column sorts. *)

val cases : t -> Term.t list -> (Term.t list * int list) list
(** [cases m q] splits the query vector [q] column by column and returns
    the leaves in order. A variable column that some row still compatible
    with the leaf constrains with a constructor is replaced by each
    constructor of its sort, applied to fresh variables named after the
    lowercased argument sorts (fresh with respect to the whole vector);
    any other column is kept. Each leaf carries the indices of the rows
    matching every instance of it, in row order; an empty list is a
    missing case. Raises [Invalid_argument] on a width mismatch. *)

val expand : avoid:(string * Sort.t) list -> Op.t -> Term.t
(** [expand ~avoid c] is [c] applied to variables named after its
    lowercased argument sorts, fresh with respect to [avoid] and to each
    other: the shape {!cases} gives a split column. *)

val instantiate_wildcards : Spec.t -> Term.t -> Term.t
(** Replaces each variable of a sort with declared constructors by that
    sort's first constant constructor (or first constructor),
    recursively (depth-bounded; positions the bound leaves unfilled stay
    variables). Variables of parameter sorts are kept. *)
