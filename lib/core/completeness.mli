(** Sufficient-completeness checking.

    Guttag's central methodological device (section 3; the technical notion
    is developed in his thesis, cited as [8, 9]): a specification is
    {e sufficiently complete} when the axioms determine the value of every
    observer applied to every value of the type — equivalently, when every
    ground term of an "old" sort reduces to a term without the new type's
    operations. Incompleteness in practice means an overlooked case, most
    often a boundary condition such as [REMOVE(NEW)].

    The checker reports a constructor case analysis: for each
    non-constructor operation it reads the defining left-hand sides as a
    {!Pattern_matrix} and asks for the case tree of the fully general
    application [f(x1, ..., xn)], splitting a variable into constructor
    cases wherever some axiom discriminates. Each leaf lists the axioms
    matching every instance of it (covered) or none (missing). The
    analysis terminates because splitting is bounded by the constructor
    depth of the axioms' left-hand sides.

    Only axioms that can fire count: a non-executable axiom (ADT011)
    covers nothing, and neither does one whose argument patterns are not
    constructor contexts. Non-left-linear axioms do not drive the split;
    they label the cases they match. Overlapping root definitions show as
    cases covered by several axioms; {!Consistency}'s critical pairs decide
    whether they agree. *)

type case = {
  pattern : Term.t;  (** The analysed left-hand-side shape. *)
  covered_by : string list;
      (** Names (or rendered equations when unnamed) of the axioms that
          match every instance of the pattern, in axiom order; empty means
          the case is missing. *)
}

type op_report = {
  op : Op.t;
  cases : case list;  (** Leaf cases of the analysis, in split order. *)
  unconstrained : bool;
      (** True when the operation has no axioms and takes arguments, none
          of a sort with constructors (a parameter operation such as
          [SAME?] on an abstract [Identifier]): no ground instance exists,
          so it is not counted as incomplete. A constant with no axioms is
          not unconstrained: its one case is missing. *)
}

type report = { spec_name : string; op_reports : op_report list }

val check : Spec.t -> report
(** Analyses every observer of the specification. *)

val check_op : Spec.t -> Op.t -> op_report
(** An operation with no axioms at all is still split one level at its
    first constructor-bearing argument, so its cases are the constructor
    shapes a complete axiomatisation must cover. *)

val matrix_axioms : Spec.t -> Op.t -> Axiom.t list * Axiom.t list
(** [(rows, labelling)]: the axioms of the operation that drive the case
    analysis (executable, left-linear, argument patterns constructor
    contexts) and the executable non-left-linear ones with constructor
    argument patterns, which only label the cases they match and so may
    cover part of a case reported missing. No other axiom fires on a
    ground constructor instance. *)

val is_complete : report -> bool
(** No missing case in any operation report. *)

val missing : report -> Term.t list
(** All missing left-hand-side patterns. *)

val pp_report : report Fmt.t
val pp_op_report : op_report Fmt.t
