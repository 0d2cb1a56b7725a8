(** Reading and writing sequence databases.

    Two formats are supported:
    - {b labeled lines}: one sequence per line as
      [label<TAB>characters] — the working format of the CLI and benches;
    - {b FASTA-like}: [>id label] header lines followed by sequence lines,
      familiar from protein databases such as the paper's SWISS-PROT input.

    Both formats carry single-character symbols; the alphabet is inferred
    from the data unless one is supplied. *)

val write_labeled : string -> Alphabet.t -> (string * Sequence.t) array -> unit
(** [write_labeled path alpha rows] writes [label<TAB>sequence] lines. *)

val read_labeled : ?alphabet:Alphabet.t -> string -> Alphabet.t * (string * Sequence.t) array
(** [read_labeled path] parses [label<TAB>sequence] lines, inferring the
    alphabet from the sequence characters when none is given. Blank lines
    and lines starting with ['#'] are skipped, and one trailing ['\r'] is
    stripped from each line, so CRLF files read like LF ones. Raises
    [Failure] on a malformed line, naming its physical line number in
    the file. *)

val write_fasta : string -> Alphabet.t -> (string * Sequence.t) array -> unit
(** [write_fasta path alpha rows] writes [>seq<i> label] records wrapped at
    70 columns. *)

val read_fasta : ?alphabet:Alphabet.t -> string -> Alphabet.t * (string * Sequence.t) array
(** [read_fasta path] parses FASTA records; the record label is the text
    after the first space in the header (or the full id when absent). *)

val write_tokens : string -> Alphabet.t -> (string * Sequence.t) array -> unit
(** [write_tokens path alpha rows] writes [label<TAB>sym sym sym ...]
    lines with space-separated symbol names — the format for alphabets
    whose symbols are multi-character strings (event logs, word-level
    text). *)

val read_tokens : ?alphabet:Alphabet.t -> string -> Alphabet.t * (string * Sequence.t) array
(** [read_tokens path] parses [label<TAB>sym sym ...] lines; the alphabet
    is inferred from the distinct tokens (in first-appearance order) when
    none is given. Blank lines, ['#'] comments and trailing ['\r']s are
    handled as in {!read_labeled}. Raises [Failure] on a malformed line
    (physical line number included) or (with [~alphabet]) an unknown
    token. *)

val to_database : Alphabet.t -> (string * Sequence.t) array -> Seq_database.t * string array
(** [to_database alpha rows] splits labeled rows into a database and the
    parallel label array. *)
