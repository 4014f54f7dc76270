(** The CLI's usage registry: one table for commands and their flags.

    Every subcommand registers itself with {!command} and every named
    option passes its names through {!flag}; the top-level help's command
    list is then {e generated} from this registry ({!table}), so a command
    or flag added to the tool cannot be forgotten in the summary — the
    golden help test (test/test_cli.ml) pins the rendered table and fails
    on any unreviewed drift. Registration happens while the CLI module
    initialises; afterwards the registry is only read. *)

val command : string -> string -> string
(** [command name doc] registers a subcommand; returns [name] for use in
    [Cmdliner.Cmd.info]. Raises [Invalid_argument] on a duplicate. *)

val flag : cmds:string list -> string list -> string list
(** [flag ~cmds names] registers the option spelled [names] (as passed to
    [Cmdliner.Arg.info], e.g. [["trace-out"]] or [["out"; "o"]]) under
    each command in [cmds]; returns [names]. A command may be named
    before it is registered — consistency is checked by {!table} and the
    startup assertion in the CLI. *)

val commands : unit -> (string * string) list
(** (name, doc) in registration order. *)

val summary : string -> string
(** The registered doc line for a command. Raises [Not_found]. *)

val all_flags : unit -> string list
(** Every distinct rendered option name, in first-registration order. *)

val table : unit -> string
(** The generated command summary: one line per command plus an indented
    [options:] line listing its registered flags. Embedded in the
    top-level help. *)
