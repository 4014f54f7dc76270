(** Exclusion filters for logical dump.

    "Logical backup schemes often take advantage of filters — excluding
    certain files from being backed up" (paper §3). Patterns are simple
    globs: [*] matches any run of characters except [/], [?] one character,
    [**] any run including [/]. A pattern containing no [/] is matched
    against the basename; otherwise against the whole subtree-relative
    path. *)

type t

val compile : string list -> t
val excluded : t -> string -> bool
(** [excluded t path]: [path] is subtree-relative, e.g. ["src/main.o"]. *)

val none : t
