(** The bundled-language registry: the single construction entry point
    shared by every tool ([iglrc] subcommands, the [iglrd] daemon, the
    bench harness).

    Each {!Language.t} caches its conflict-retaining table, the
    filter-compiled table every parse runs on and its lexer DFA behind
    lazies, so routing every lookup through this one list
    guarantees a language's tables are built at most once per process no
    matter how many documents, subcommands or server sessions use it —
    [lrtab.table_builds] in the metrics registry counts the actual
    constructions, which is how the regression tests pin the guarantee
    down. *)

val all : (string * Language.t) list
(** Name → bundle, in canonical order. *)

val names : string list

val find : string -> Language.t option

val name_of : Language.t -> string
(** Registry name of a bundle (physical equality); its [name] field
    otherwise. *)

val force : Language.t -> unit
(** Force the language's tables and lexer lazies.  [Lazy.force] is not
    safe against concurrent forcing from several domains, so the daemon
    calls this from its single dispatcher thread before any worker can
    touch the language. *)
