(** Axiom-construction heuristics and user prompting.

    Section 3 of the paper describes "heuristics to aid the user in the
    initial presentation of an axiomatic specification" and "a system to
    mechanically verify the sufficient-completeness" that would "prompt the
    user to supply the additional information" needed. This module is that
    system's front half:

    - {!skeletons} computes the left-hand sides a complete specification of
      an operation must cover — each observer applied to each constructor
      pattern — before any axiom is written;
    - {!prompts} diffs the skeleton set against the axioms actually present
      and renders the questions the original system would have asked,
      flagging boundary conditions (the cases "particularly likely to be
      overlooked");
    - {!stub_axioms} materialises the missing cases as [... = error] stubs
      so a specification can be made executable and refined interactively. *)

type kind =
  | Boundary  (** Every constructor argument at the split position is a
                  constant constructor, e.g. [REMOVE(NEW)]. *)
  | General  (** e.g. [REMOVE(ADD(q, i))]. *)

type prompt = {
  op : Op.t;
  missing_lhs : Term.t;
  kind : kind;
  question : string;
      (** English text of the question the system asks the user. *)
  suggested_rhs : Term.t option;
      (** A guess when one is forced (single-constructor result sorts);
          usually [None]. *)
}

val skeletons : Spec.t -> Op.t -> Term.t list
(** The constructor case patterns a sufficiently complete axiomatisation of
    the operation must cover: the cases of {!Completeness.check_op}, split
    wherever the existing axioms discriminate (for an operation with no
    axioms yet, one split of the first constructor-bearing argument). *)

val prompts : Spec.t -> prompt list
(** Prompts for every missing case of every observer, boundary cases
    first. *)

val stub_axioms : ?prefix:string -> Spec.t -> Axiom.t list
(** One [lhs = error] axiom per missing case, named [prefix]-[n]. *)

val complete_with_stubs : Spec.t -> Spec.t
(** The specification extended with {!stub_axioms}; sufficiently complete
    by construction. *)

val pp_prompt : prompt Fmt.t
