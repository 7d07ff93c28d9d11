(** The meta-tracing abstraction seam.

    Language interpreters are written {e once}, as a functor over [OPS].
    Instantiated with {!Direct_ops} the handlers execute and charge
    interpreter costs; instantiated with {!Trace_ops} every operation
    also records trace IR — the meta-trace is the stream of the
    interpreter's own operations (type dispatches become guards, field
    reads become [getfield_gc], dict probes become residual AOT calls),
    exactly the RPython architecture described in Sec. II of the paper.

    Handler discipline (required for sound deoptimization): within one
    bytecode, all operations that can record guards or raise language
    errors must be performed {e before} the first heap side effect, and
    [Frame.pc] must only be advanced once the bytecode cannot fail.
    Guards resume at the start of the current bytecode, which is then
    re-executed by the interpreter. *)

exception Lang_error of string
(** A language-level error (TypeError, IndexError, ZeroDivisionError...).
    During tracing it aborts the trace; the interpreter re-executes the
    bytecode and reports the error. *)

type cmp = Lt | Le | Gt | Ge | Eq | Ne | Is | Is_not | In | Not_in

module type OPS = sig
  type t
  (** the value representation (plain values, or values tracked with
      their IR operand during tracing) *)

  type cx
  (** per-execution context (runtime ctx, or the trace recorder) *)

  val rt : cx -> Mtj_rt.Ctx.t
  val const : cx -> Mtj_rt.Value.t -> t
  val concrete : t -> Mtj_rt.Value.t

  val frame_pool : cx -> t Mtj_rt.Apool.t
  (** the pool dead frames' locals/stack arrays are recycled through
      (host-side only; disabled pools degrade to plain allocation) *)

  (* --- control: these return concrete answers and record guards --- *)

  val is_true : cx -> t -> bool
  val guard_int : cx -> t -> int
  val guard_func : cx -> t -> Mtj_rt.Value.func
  (** pin the callee's identity so inlining it into the trace is sound *)

  val method_parts : cx -> t -> (t * t) option
  (** if the value is a bound method, split it into (function, receiver) *)

  val func_captured : cx -> t -> int -> t
  (** read slot [i] of a function value's captured environment (closure
      cells); recorded as a [getfield_gc] on the function object *)

  val make_closure :
    cx -> code_ref:int -> arity:int -> fname:string -> t array -> t
  (** allocate a closure capturing the given cells *)

  (* --- arithmetic / comparison (full dynamic dispatch) --- *)

  val add : cx -> t -> t -> t
  val sub : cx -> t -> t -> t
  val mul : cx -> t -> t -> t
  val floordiv : cx -> t -> t -> t
  val truediv : cx -> t -> t -> t
  val modulo : cx -> t -> t -> t
  val pow : cx -> t -> t -> t
  val neg : cx -> t -> t
  val lshift : cx -> t -> t -> t
  val rshift : cx -> t -> t -> t
  val bitand : cx -> t -> t -> t
  val bitor : cx -> t -> t -> t
  val bitxor : cx -> t -> t -> t
  val compare : cx -> cmp -> t -> t -> t
  val not_ : cx -> t -> t

  (* --- attributes --- *)

  val getattr : cx -> t -> string -> t
  val setattr : cx -> t -> string -> t -> unit
  val load_method : cx -> t -> string -> t * t
  (** returns [(callable, receiver)]; for builtin methods the receiver is
      passed as the first call argument, avoiding bound-method allocation *)

  (* --- subscripts / length --- *)

  val getitem : cx -> t -> t -> t
  val setitem : cx -> t -> t -> t -> unit
  val len_ : cx -> t -> t
  val unpack : cx -> t -> int -> t array
  (** destructure a tuple/list of statically-known length *)

  (* --- construction --- *)

  val make_list : cx -> t array -> t
  val make_tuple : cx -> t array -> t
  val make_dict : cx -> (t * t) array -> t
  val make_set : cx -> t array -> t
  val make_cell : cx -> t -> t
  val cell_get : cx -> t -> t
  val cell_set : cx -> t -> t -> unit

  (* --- classes --- *)

  val alloc_instance : cx -> t -> t
  (** allocate an instance of the (promoted) class value *)

  val class_init_func : cx -> t -> Mtj_rt.Value.func option
  (** the class's [__init__], pinned as a constant *)

  (* --- globals (promoted with version guards) --- *)

  val load_global : cx -> Globals.t -> string -> t
  val store_global : cx -> Globals.t -> string -> t -> unit

  (* --- builtins --- *)

  val call_builtin : cx -> Builtin.t -> t array -> t
end
