(** A persistent string store: the on-disk tier of the two-tier
    response cache.

    One entry is one file named [<16-hex-digit key>.json] directly
    under the store directory; the value is written byte-exact and
    read back byte-exact.  Writes go through a [.tmp-<pid>-<key>]
    sibling and [Sys.rename], so a concurrently reading process (or a
    crash mid-write) can never observe a torn entry.  Keys are the
    64-bit FNV-1a request fingerprints ([Rchls_api.Request.cache_key]);
    the store itself treats them as opaque.

    Eviction is size-bounded with a low-water mark: once a fresh
    {!add} takes the entry estimate past [max_entries], one directory
    scan recounts the files (resyncing with other processes sharing
    the directory) and removes the oldest by modification time down to
    [max_entries - max_entries / 8].  The next scan is then at least
    [max_entries / 8] fresh adds away, so a full store costs one scan
    per that many misses instead of one per miss.  Under 8 entries
    there is no headroom: eviction stops at [max_entries] itself.
    Reads refresh an entry's mtime, making eviction approximately LRU.

    Thread safety: one {!t} may be shared by every worker thread and
    domain of a daemon (operations take an internal lock).  Two
    {e processes} sharing a directory are safe for correctness
    (atomic rename, re-stat on read) but evict independently.

    Observability: every operation bumps a {!Telemetry} counter —
    [diskcache.hits] / [diskcache.misses] on {!find},
    [diskcache.writes] on each {!add} whose rename landed,
    [diskcache.scans] per eviction directory scan and
    [diskcache.evictions] per removed entry — so the daemon's [stats]
    answer and Prometheus scrape report disk-tier behavior without the
    store keeping any state of its own. *)

type t

val open_dir : ?max_entries:int -> string -> (t, string) result
(** Open (creating it, including parents, if needed) a store rooted at
    the given directory.  [max_entries] (default 4096, min 1) bounds
    the file count. *)

val dir : t -> string

val find : t -> int64 -> string option
(** The stored value, or [None] on a miss (also on an unreadable or
    concurrently evicted entry — a disk-tier miss is never an error). *)

val add : t -> int64 -> string -> unit
(** Persist [value] under [key], overwriting any previous entry; if
    a new entry takes the estimate past [max_entries], evict down to
    the low-water mark.  IO errors are swallowed: the disk tier is an
    accelerator, losing a write only costs a future recomputation. *)

val entries : t -> int
(** Number of entries currently on disk (scans the directory). *)

val key_name : int64 -> string
(** The file name for a key: 16 lowercase hex digits + [".json"]. *)
