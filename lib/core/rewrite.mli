(** Term rewriting.

    Axioms read left to right are rewrite rules; normalizing a ground term
    against a specification is the paper's "symbolic interpretation" of the
    algebra (section 5). The engine implements the two semantic rules the
    paper builds into its notation:

    - {b strict error propagation}: an operation applied to an argument list
      containing [error] is [error];
    - {b lazy if-then-else}: the condition is evaluated first and selects a
      branch; the unselected branch is never evaluated (so axioms such as
      [FRONT(ADD(q,i)) = if IS_EMPTY?(q) then i else FRONT(q)] do not poison
      themselves through [FRONT(NEW) = error]).

    The reference strategy is leftmost-innermost, which matches the strict
    semantics. The leftmost-outermost strategy is also provided; it may
    normalize terms the innermost strategy sends to [error] (it enforces
    strictness only on arguments in normal form), and is used by the
    completion and proof machinery where laziness is harmless.

    Two matching engines implement the same semantics (see {!engine});
    they are proven observably identical by the differential harness in
    [test/test_diff.ml] and selectable per system. *)

type rule = private { rule_name : string; lhs : Term.t; rhs : Term.t }

val rule : ?name:string -> lhs:Term.t -> rhs:Term.t -> unit -> rule
(** Same validity conditions as {!Axiom.v}, except the left-hand side may be
    any non-variable term. *)

val rule_of_axiom : Axiom.t -> rule
val axiom_of_rule : rule -> Axiom.t
val pp_rule : rule Fmt.t

(** {1 Engine selection}

    How redexes are located (semantics never changes, only speed):

    - [Reference] — the naive engine: linear rule scan, deep
      structural equality, no ids or intern-table shortcuts. The
      differential oracle.
    - [Automaton] — rules compiled into a {!Match_tree} matching
      automaton: every subterm inspected once, rule firing through
      precomputed right-hand-side templates. The default.

    A system is pinned to the engine it was compiled with
    ({!engine_of}); every system built without an explicit [?engine]
    uses {!default_engine}, which is initialized from the [ADTC_ENGINE]
    environment variable ([reference] | [auto], default
    [auto]) and set by the CLI's [--engine] flag. *)

type engine = Reference | Automaton

val engine_name : engine -> string
(** ["reference"], ["auto"]. *)

val engine_of_string : string -> engine option
(** Accepts (case-insensitively) ["reference"] and
    ["auto"]/["automaton"]. *)

val default_engine : unit -> engine
val set_default_engine : engine -> unit

type system

val of_spec : ?engine:engine -> Spec.t -> system
(** Rules are the specification's {e executable} axioms in order; an axiom
    with free right-hand-side variables ({!Axiom.is_executable} false) is
    skipped — it is an equation the static analyzer reports (ADT011), not a
    rule the rewriter may fire. *)

val of_spec_keyed : ?engine:engine -> key:string -> Spec.t -> system
(** {!of_spec} through a process-wide compiled-system cache: [key] must
    identify the specification's executable-axiom list and priority
    order — {!Spec_digest.spec} is (more than) fine — and equal keys
    (compiled for the same engine) return the {e same} compiled system.
    Sound to share across threads and domains: a system is immutable
    after construction (the forked-interpreter contract, {!Interp.fork}).
    This is what makes reloading an unchanged specification one table
    probe instead of a from-scratch compilation. Cache entries are keyed
    by (key, engine): requesting a cached spec under a different engine
    is a miss and compiles afresh, never a stale hit. *)

type compile_cache_stats = {
  hits : int;
  misses : int;
  entries : int;
  by_engine : (string * int) list;
      (** Live cache entries per engine name, sorted by name. *)
}

val compile_cache_stats : unit -> compile_cache_stats
val compile_cache_clear : unit -> unit

val of_rules : ?engine:engine -> rule list -> system

val add_rules : rule list -> system -> system
(** Added rules take priority over existing ones with the same head. The
    result keeps the host system's engine, not the global default. *)

val add_axioms : Axiom.t list -> system -> system
val rules : system -> rule list
val size : system -> int

val engine_of : system -> engine
(** The engine this system's entry points dispatch to. *)

val with_engine : engine -> system -> system
(** The same rules (both engines' structures are always compiled),
    re-pinned to another engine. O(1). *)

type strategy = Innermost | Outermost

exception Out_of_fuel of Term.t
(** Raised when the step budget is exhausted; carries the term reached. *)

val default_fuel : int

(** {2 The deadline hook}

    Every fuel-metered normalization entry point accepts an optional
    [poll] callback, invoked once per rule application (at the same
    site where fuel is charged). A caller enforcing a wall-clock budget
    — the evaluation engine's per-request deadline — passes a closure
    that checks a monotonic deadline and raises to abort; the exception
    propagates out of the normalization untouched. Signal-based
    interruption is unsound once the engine serves requests from
    multiple threads, so interruption is cooperative: the rewriting
    loop reaches a poll point constantly, bounded computations between
    polls stay bounded. Omitting [poll] costs nothing.

    [on_rule] is [poll]'s observability sibling, invoked at the same
    site with the name of the rule being applied — per-rule firing
    attribution for the tracing layer ([Obs.Trace]). Omitting it costs
    one option test per application; it must not raise. *)

val normalize :
  ?strategy:strategy ->
  ?fuel:int ->
  ?poll:(unit -> unit) ->
  ?on_rule:(string -> unit) ->
  system ->
  Term.t ->
  Term.t
(** Raises {!Out_of_fuel}. Dispatches to the system's engine
    ({!engine_of}); so do {!normalize_opt}, {!normalize_count},
    {!normalize_memo}, {!step}, {!trace}, and {!normalize_stats}. *)

val normalize_opt :
  ?strategy:strategy ->
  ?fuel:int ->
  ?poll:(unit -> unit) ->
  ?on_rule:(string -> unit) ->
  system ->
  Term.t ->
  Term.t option
(** [None] when the fuel runs out. *)

val normalize_count :
  ?strategy:strategy ->
  ?fuel:int ->
  ?poll:(unit -> unit) ->
  ?on_rule:(string -> unit) ->
  system ->
  Term.t ->
  Term.t * int
(** Also returns the number of rule applications performed (builtin
    error/ite steps are not counted). *)

val joinable :
  ?strategy:strategy -> ?fuel:int -> system -> Term.t -> Term.t -> bool
(** Both terms normalize (within fuel) to equal normal forms. *)

(** {1 The pinned engines}

    Entry points that dispatch to one fixed engine regardless of the
    system's own pin — what the differential harness quantifies over and
    the E18 benchmark compares. [Reference] is the oracle: the rewriting
    algorithm as it was before compiled rule dispatch and hash-consed
    comparisons — a linear scan over every rule in priority order, with
    a matcher that binds and compares via deep structural equality and
    never consults term ids, precomputed hashes, or the intern table.
    Same strategies, same strict-error and lazy-ite semantics, same fuel
    accounting on both. *)

module Reference : sig
  val normalize :
    ?strategy:strategy ->
    ?fuel:int ->
    ?poll:(unit -> unit) ->
    ?on_rule:(string -> unit) ->
    system ->
    Term.t ->
    Term.t
  (** Raises {!Out_of_fuel}. *)

  val normalize_opt :
    ?strategy:strategy ->
    ?fuel:int ->
    ?poll:(unit -> unit) ->
    ?on_rule:(string -> unit) ->
    system ->
    Term.t ->
    Term.t option

  val normalize_count :
    ?strategy:strategy ->
    ?fuel:int ->
    ?poll:(unit -> unit) ->
    ?on_rule:(string -> unit) ->
    system ->
    Term.t ->
    Term.t * int
end

(** The matching automaton ({!Match_tree}), pinned. *)
module Automaton : sig
  val normalize :
    ?strategy:strategy ->
    ?fuel:int ->
    ?poll:(unit -> unit) ->
    ?on_rule:(string -> unit) ->
    system ->
    Term.t ->
    Term.t

  val normalize_opt :
    ?strategy:strategy ->
    ?fuel:int ->
    ?poll:(unit -> unit) ->
    ?on_rule:(string -> unit) ->
    system ->
    Term.t ->
    Term.t option

  val normalize_count :
    ?strategy:strategy ->
    ?fuel:int ->
    ?poll:(unit -> unit) ->
    ?on_rule:(string -> unit) ->
    system ->
    Term.t ->
    Term.t * int
end

val is_normal_form : system -> Term.t -> bool
(** No rule, error step, or if-then-else step applies anywhere. *)

(** {1 Single steps and traces} *)

type event = {
  position : Term.position;
  rule_used : string;
      (** Rule name, or ["<error>"] / ["<if>"] for builtin steps. *)
  before : Term.t;  (** Whole term before the step. *)
  after : Term.t;  (** Whole term after the step. *)
}

val step : system -> Term.t -> event option
(** One leftmost-innermost step, or [None] if the term is in normal form. *)

val trace :
  ?fuel:int -> ?max_events:int -> system -> Term.t -> Term.t * event list
(** Innermost normalization recording every step (up to [max_events], after
    which steps are still performed but not recorded). Raises
    {!Out_of_fuel}. *)

val pp_event : event Fmt.t

(** {1 Memoized normalization}

    An evaluation session (the symbolic interpreter, the model checker)
    normalizes many terms sharing large subterms — e.g. draining a queue
    evaluates [FRONT(q)] and [REMOVE(q)] over the same [q] again and
    again. A memo caches the normal form of every application node it
    sees, bounded by a least-recently-used eviction policy ({!Lru}) so
    that long-lived sessions — the evaluation engine serving a request
    stream — hold their footprint constant. A memo is only sound for the
    system it was created against: results cached under one rule set must
    not be reused under another. *)

module Memo : sig
  type t

  val default_capacity : int

  val create : ?capacity:int -> unit -> t
  (** [capacity] (default {!default_capacity}) bounds the number of cached
      normal forms; raises [Invalid_argument] when [capacity < 1]. *)

  val clear : t -> unit
  (** Drops every entry and resets all counters, evictions included. *)

  val size : t -> int
  (** Never exceeds {!capacity}. *)

  val capacity : t -> int
  val hits : t -> int
  val misses : t -> int
  val evictions : t -> int
end

val normalize_memo :
  ?fuel:int ->
  ?poll:(unit -> unit) ->
  ?on_rule:(string -> unit) ->
  memo:Memo.t ->
  system ->
  Term.t ->
  Term.t
(** Leftmost-innermost normalization through the cache. Raises
    {!Out_of_fuel}. An abort raised by [poll] leaves the cache sound:
    every entry added so far is a true normal form. *)

val normalize_memo_count :
  ?fuel:int ->
  ?poll:(unit -> unit) ->
  ?on_rule:(string -> unit) ->
  memo:Memo.t ->
  system ->
  Term.t ->
  Term.t * int
(** {!normalize_memo}, also returning the number of rule applications
    performed (a fully cached term reports 0 — and fires [on_rule] not
    at all: attribution counts real work, not cache hits). *)

(** {1 Statistics} *)

type stats = { applications : (string * int) list; total : int }
(** Rule-name to firing-count, for the benchmark harness. *)

val normalize_stats :
  ?strategy:strategy -> ?fuel:int -> system -> Term.t -> Term.t * stats
