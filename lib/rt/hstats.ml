(** Host-side fast-path statistics.

    Counts how often the allocation-free value fast paths fired: these
    are HOST-level counters (like [Engine.charge_flushes]), not simulated
    machine work — the fast paths are invisible to the simulation by
    construction.  One record per {!Ctx}, so parallel runs never share a
    counter and the exported values are deterministic. *)

type t = {
  mutable imm_fast_path_hits : int;
      (* typed arithmetic/comparison entry points (Rarith) fully handled
         on the immediate-int fast path: no heap block touched, result
         (if any) built with the allocation-free [Value.of_int]/
         [Value.of_bool] *)
  mutable boxed_slow_path_hits : int;
      (* the same entry points falling back to the boxed path: a float,
         bool, bigint or overflow-promotion was involved *)
  mutable typed_ops_total : int;
      (* entries into the counted typed entry points; every entry
         classifies as exactly one of the two buckets above, so
         [imm_fast_path_hits + boxed_slow_path_hits = typed_ops_total]
         is a structural invariant (checked by the metrics validator) *)
  mutable frame_pool_reuses : int;
      (* locals/stack arrays served from a frame pool free list instead
         of [Array.make] *)
  mutable dict_hash_skips : int;
      (* dict/set operations entered with a precomputed key hash, so no
         [py_hash]/[str_hash] recomputation ran *)
}

let create () =
  {
    imm_fast_path_hits = 0;
    boxed_slow_path_hits = 0;
    typed_ops_total = 0;
    frame_pool_reuses = 0;
    dict_hash_skips = 0;
  }

(* a frozen copy for a finished run's result: [with] on any one field
   copies the whole record *)
let copy h = { h with imm_fast_path_hits = h.imm_fast_path_hits }
