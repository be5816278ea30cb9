type access = {
  array : string;
  is_write : bool;
  coeffs : (string * float) list;
  offset : float;
  affine : bool;
}

type loop_node = {
  index : string;
  trips : float;
  step : int;
  accesses : access list;
  flops : float;
  iops : float;
  stmts : float;
  children : loop_node list;
}

type t = {
  roots : loop_node list;
  array_elements : (string * float) list;
  straightline_stmts : float;
}

(* Environment of one loop body.  The live loop indices sit innermost
   first in [names], with their mid-range values in [mids]; a variable
   resolves to the innermost live index of that name, else to a parameter.
   [expansion] maps a live index whose lower bound depends on enclosing
   indices (strip-mined point loops: [for i = i_t to min(i_t + T - 1, ...)])
   to the fully-folded affine coefficients of that bound, so that an access
   subscripted by [i] is correctly seen to sweep with [i_t] as well.  All
   name lookups are monomorphic string comparisons. *)
type env = {
  names : string array;
  mids : float array;
  params : (string * float) list;
  expansion : (string * (string * float) list) list;
}

exception Non_affine

(* Names are short and mostly differ in length or first letter, so those
   tests come before the byte comparison. *)
let same_name a b =
  a == b
  ||
  let n = String.length a in
  n = String.length b
  && (n = 0 || String.unsafe_get a 0 = String.unsafe_get b 0)
  && String.equal a b

let rec assoc_name name = function
  | [] -> None
  | (k, v) :: rest -> if same_name k name then Some v else assoc_name name rest

let assoc_or_zero name alist =
  match assoc_name name alist with Some c -> c | None -> 0.0

(* Innermost live position of [name], or -1. *)
let live_pos names name =
  let n = Array.length names in
  let rec go p =
    if p >= n then -1 else if same_name names.(p) name then p else go (p + 1)
  in
  go 0

(* Numeric evaluation of an expression under average index values.  Used
   for loop bounds; Min/Max/Idiv are common there (tile edges, unroll
   remainder bounds). *)
let rec eval_avg env (e : Ast.expr) : float =
  match e with
  | Int_lit n -> float_of_int n
  | Float_lit x -> x
  | Var x -> (
      let p = live_pos env.names x in
      if p >= 0 then env.mids.(p)
      else
        match assoc_name x env.params with
        | Some v -> v
        | None -> raise Non_affine)
  | Index _ -> raise Non_affine
  | Binop (op, a, b) -> (
      let x = eval_avg env a and y = eval_avg env b in
      match op with
      | Add -> x +. y
      | Sub -> x -. y
      | Mul -> x *. y
      | Div -> x /. y
      | Idiv -> if y = 0.0 then raise Non_affine else Float.of_int (int_of_float x / int_of_float y)
      | Mod -> if y = 0.0 then raise Non_affine else Float.rem x y
      | Min -> Float.min x y
      | Max -> Float.max x y)
  | Neg a -> -.eval_avg env a
  | Sqrt a -> sqrt (eval_avg env a)

(* Whether [e] mentions a live index. *)
let rec depends names (e : Ast.expr) =
  match e with
  | Int_lit _ | Float_lit _ -> false
  | Var x -> live_pos names x >= 0
  | Index (_, subs) -> List.exists (depends names) subs
  | Binop (_, a, b) -> depends names a || depends names b
  | Neg a | Sqrt a -> depends names a

(* What every access of one loop body shares, built once per body:
   [env0] has all live indices at zero (evaluating a subscript there
   yields the constant term of its affine form); [first.(p)] is the
   innermost position carrying the name of position [p]; [expanded] lists
   the positions whose index has an expansion, with that expansion as
   coefficients over positions in [rows]. *)
type scope = {
  env : env;
  env0 : env;
  first : int array;
  expanded : int array;
  rows : float array array;
}

let scope_of env =
  let n = Array.length env.names in
  let expanded =
    List.filter_map
      (fun q ->
        Option.map
          (fun exp_u ->
            (q, Array.map (fun v -> assoc_or_zero v exp_u) env.names))
          (assoc_name env.names.(q) env.expansion))
      (List.init n Fun.id)
  in
  {
    env;
    env0 = { env with mids = Array.make n 0.0 };
    first = Array.map (live_pos env.names) env.names;
    expanded = Array.of_list (List.map fst expanded);
    rows = Array.of_list (List.map snd expanded);
  }

(* Affine coefficients of an integer expression, one per live position,
   with parameters as constants.  Most subscripts are a live index plus a
   constant, so the all-zero and unit forms stay symbolic; any other
   combination is a dense array.  Each component is the same arithmetic,
   in the same order, as extracting that index's coefficient on its own:
   the symbolic shortcuts are exact ([1 + 0 = 1 - 0 = 1], [0 + 0 = 0 - 0 =
   0]) and everything that could yield [-0.] goes dense. *)
type form =
  | Zero  (** [0.] at every position. *)
  | Unit of int
      (** [Unit p]: [1.] at every position whose index has the name of
          position [p], its innermost occurrence; [0.] elsewhere. *)
  | Dense of float array

let dense sc = function
  | Dense c -> c
  | Zero -> Array.make (Array.length sc.first) 0.0
  | Unit p0 -> Array.map (fun q -> if q = p0 then 1.0 else 0.0) sc.first

(* Raises [Non_affine] on products of two index-dependent terms, or
   Idiv/Mod/Min/Max applied to index-dependent operands. *)
let rec coeffs sc (e : Ast.expr) : form =
  let env = sc.env in
  match e with
  | Int_lit _ | Float_lit _ -> Zero
  | Var x ->
      let p = live_pos env.names x in
      if p >= 0 then Unit p else Zero
  | Index _ -> raise Non_affine
  | Neg a -> Dense (Array.map (fun c -> -.c) (dense sc (coeffs sc a)))
  | Sqrt a -> if depends env.names a then raise Non_affine else Zero
  | Binop (Add, a, b) -> (
      match (coeffs sc a, coeffs sc b) with
      | Zero, Zero -> Zero
      | (Unit _ as u), Zero | Zero, (Unit _ as u) -> u
      | ca, cb -> Dense (Array.map2 ( +. ) (dense sc ca) (dense sc cb)))
  | Binop (Sub, a, b) -> (
      match (coeffs sc a, coeffs sc b) with
      | Zero, Zero -> Zero
      | (Unit _ as u), Zero -> u
      | ca, cb -> Dense (Array.map2 ( -. ) (dense sc ca) (dense sc cb)))
  | Binop (Mul, a, b) ->
      if not (depends env.names a) then
        let k = eval_avg env a in
        Dense (Array.map (fun c -> k *. c) (dense sc (coeffs sc b)))
      else if not (depends env.names b) then
        let k = eval_avg env b in
        Dense (Array.map (fun c -> c *. k) (dense sc (coeffs sc a)))
      else raise Non_affine
  | Binop ((Div | Idiv | Mod | Min | Max), a, b) ->
      if depends env.names a || depends env.names b then raise Non_affine
      else Zero

(* [raw.(p) <- raw.(p) + f.(p) * s] at every position. *)
let accumulate sc raw f s =
  match f with
  | Dense c ->
      for p = 0 to Array.length raw - 1 do
        raw.(p) <- raw.(p) +. (c.(p) *. s)
      done
  | Zero ->
      for p = 0 to Array.length raw - 1 do
        raw.(p) <- raw.(p) +. (0.0 *. s)
      done
  | Unit p0 ->
      for p = 0 to Array.length raw - 1 do
        let c = if sc.first.(p) = p0 then 1.0 else 0.0 in
        raw.(p) <- raw.(p) +. (c *. s)
      done

(* Fold bound-induced dependence: a coefficient on a strip-mined point
   index also sweeps with the indices its lower bound ranges over.  From
   the direct coefficients [raw], returns the nonzero folded coefficients
   as [(index, c)], innermost first.  With [sparse], zero direct
   coefficients are treated as absent, as in a lower bound's own
   (filtered) coefficient list. *)
let folded_coeffs sc raw ~sparse =
  let names = sc.env.names in
  let acc = ref [] in
  for p = Array.length names - 1 downto 0 do
    let extra = ref 0.0 in
    for i = 0 to Array.length sc.expanded - 1 do
      let q = sc.expanded.(i) in
      if (not sparse) || raw.(q) <> 0.0 then
        extra := !extra +. (raw.(q) *. sc.rows.(i).(p))
    done;
    let own = raw.(sc.first.(p)) in
    let own = if sparse && not (own <> 0.0) then 0.0 else own in
    let c = own +. !extra in
    if c <> 0.0 then acc := (names.(p), c) :: !acc
  done;
  !acc

type array_info = { extents : float array; strides : float array }

(* Row-major flat-offset coefficient: sum over dimensions of the subscript
   coefficient times the product of the extents of later dimensions
   ([strides.(k)], precomputed per array; 1 past the declared rank and for
   undeclared arrays). *)
let row_stride strides k = if k < Array.length strides then strides.(k) else 1.0

let access_of sc ~dims ~is_write array subs =
  let strides =
    match assoc_name array dims with Some i -> i.strides | None -> [||]
  in
  let names = sc.env.names in
  match
    let coeffs =
      if Array.length names = 0 then []
      else begin
        let raw = Array.make (Array.length names) 0.0 in
        List.iteri
          (fun k sub -> accumulate sc raw (coeffs sc sub) (row_stride strides k))
          subs;
        folded_coeffs sc raw ~sparse:false
      end
    in
    let offset = ref 0.0 in
    List.iteri
      (fun k sub ->
        offset := !offset +. (eval_avg sc.env0 sub *. row_stride strides k))
      subs;
    (coeffs, !offset)
  with
  | coeffs, offset -> { array; is_write; coeffs; offset; affine = true }
  | exception Non_affine ->
      { array; is_write; coeffs = []; offset = 0.0; affine = false }

let count_ops (e : Ast.expr) =
  (* flops: operators outside subscripts; iops: operators inside them. *)
  let rec go in_subscript e =
    match e with
    | Ast.Int_lit _ | Float_lit _ | Var _ -> (0, 0)
    | Index (_, subs) ->
        List.fold_left
          (fun (f, i) s ->
            let f', i' = go true s in
            (f + f', i + i'))
          (0, 0) subs
    | Binop (_, a, b) ->
        let fa, ia = go in_subscript a in
        let fb, ib = go in_subscript b in
        if in_subscript then (fa + fb, ia + ib + 1) else (fa + fb + 1, ia + ib)
    | Neg a | Sqrt a ->
        let f, i = go in_subscript a in
        if in_subscript then (f, i + 1) else (f + 1, i)
  in
  go false e

let rec exprs_of_cond (c : Ast.cond) =
  match c with
  | Cmp (_, a, b) -> [ a; b ]
  | And (a, b) | Or (a, b) -> exprs_of_cond a @ exprs_of_cond b
  | Not a -> exprs_of_cond a

type stats = {
  s_accs : access list;  (* reversed while collecting *)
  s_loops : Ast.loop list;  (* reversed while collecting *)
  s_flops : float;
  s_iops : float;
  s_stmts : float;
}

(* Direct statistics of statements under [s], stopping at nested loops,
   which are collected separately for recursion.  Accesses and loops are
   pushed onto the reversed lists of [st]; the counts are those of [s]
   alone. *)
let rec direct_stats sc ~dims (s : Ast.stmt) st =
  match s with
  | Assign (lhs, rhs) ->
      let rec reads e accs =
        match e with
        | Ast.Int_lit _ | Float_lit _ | Var _ -> accs
        | Index (a, subs) ->
            List.fold_left
              (fun accs s -> reads s accs)
              (access_of sc ~dims ~is_write:false a subs :: accs)
              subs
        | Binop (_, a, b) -> reads b (reads a accs)
        | Neg a | Sqrt a -> reads a accs
      in
      let accs, wf, wi =
        match lhs with
        | Scalar_lhs _ -> (st.s_accs, 0, 0)
        | Array_lhs (a, subs) ->
            let f, i =
              List.fold_left
                (fun (f, i) s ->
                  let f', i' = count_ops s in
                  (f + f', i + i' + 1))
                (0, 0) subs
            in
            (access_of sc ~dims ~is_write:true a subs :: st.s_accs, f, i)
      in
      let rf, ri = count_ops rhs in
      {
        s_accs = reads rhs accs;
        s_loops = st.s_loops;
        s_flops = float_of_int (rf + wf);
        s_iops = float_of_int (ri + wi);
        s_stmts = 1.0;
      }
  | Seq ss ->
      List.fold_left
        (fun acc s ->
          let s' = direct_stats sc ~dims s acc in
          {
            s' with
            s_flops = acc.s_flops +. s'.s_flops;
            s_iops = acc.s_iops +. s'.s_iops;
            s_stmts = acc.s_stmts +. s'.s_stmts;
          })
        { st with s_flops = 0.0; s_iops = 0.0; s_stmts = 0.0 }
        ss
  | For l -> { st with s_loops = l :: st.s_loops; s_flops = 0.0; s_iops = 0.0; s_stmts = 0.0 }
  | If (c, t, e) ->
      (* Count both branches at half weight: a cheap expected-cost model of
         data-dependent branches. *)
      let cond_iops =
        List.fold_left
          (fun acc e ->
            let f, i = count_ops e in
            acc + f + i)
          0 (exprs_of_cond c)
      in
      let t' = direct_stats sc ~dims t st in
      let e' =
        match e with
        | None -> { t' with s_flops = 0.0; s_iops = 0.0; s_stmts = 0.0 }
        | Some e -> direct_stats sc ~dims e t'
      in
      {
        e' with
        s_flops = ((t'.s_flops +. e'.s_flops) /. 2.0) +. float_of_int cond_iops;
        s_iops = (t'.s_iops +. e'.s_iops) /. 2.0;
        s_stmts = ((t'.s_stmts +. e'.s_stmts) /. 2.0) +. 1.0;
      }

let body_stats sc ~dims s =
  let st =
    direct_stats sc ~dims s
      { s_accs = []; s_loops = []; s_flops = 0.0; s_iops = 0.0; s_stmts = 0.0 }
  in
  { st with s_accs = List.rev st.s_accs; s_loops = List.rev st.s_loops }

let rec build_loop sc ~dims (l : Ast.loop) : loop_node =
  let env = sc.env in
  let lo = try eval_avg env l.lo with Non_affine -> 0.0 in
  let hi = try eval_avg env l.hi with Non_affine -> lo -. 1.0 in
  (* Constant bounds get the exact floored trip count; bounds involving
     enclosing indices are mid-range averages, where keeping the
     fractional part is the better estimator (e.g. triangular loops). *)
  let raw = (hi -. lo) /. float_of_int l.step in
  let trips =
    if depends env.names l.lo || depends env.names l.hi then
      Float.max 0.0 (raw +. 1.0)
    else Float.max 0.0 (Float.floor raw +. 1.0)
  in
  let mid = (lo +. hi) /. 2.0 in
  (* Fully-folded expansion of this loop's lower bound over enclosing
     indices; only its nonzero direct coefficients take part. *)
  let lo_expansion =
    if Array.length env.names = 0 then []
    else
      match coeffs sc l.lo with
      | exception Non_affine -> []
      | f -> folded_coeffs sc (dense sc f) ~sparse:true
  in
  let env' =
    {
      names = Array.append [| l.index |] env.names;
      mids = Array.append [| mid |] env.mids;
      params = env.params;
      expansion =
        (match lo_expansion with
        | [] -> env.expansion
        | _ -> (l.index, lo_expansion) :: env.expansion);
    }
  in
  let sc' = scope_of env' in
  let st = body_stats sc' ~dims l.body in
  let children = List.map (build_loop sc' ~dims) st.s_loops in
  { index = l.index; trips; step = l.step; accesses = st.s_accs;
    flops = st.s_flops; iops = st.s_iops; stmts = st.s_stmts; children }

let analyze ?(param_overrides = []) (kernel : Ast.kernel) =
  let params =
    List.map
      (fun (name, v) ->
        match assoc_name name param_overrides with
        | Some v' -> (name, float_of_int v')
        | None -> (name, float_of_int v))
      kernel.params
  in
  let env = { names = [||]; mids = [||]; params; expansion = [] } in
  let dims =
    List.map
      (fun (d : Ast.array_decl) ->
        let extents =
          Array.of_list
            (List.map
               (fun e -> try eval_avg env e with Non_affine -> 1.0)
               d.dims)
        in
        let strides =
          Array.mapi
            (fun k _ ->
              let s = ref 1.0 in
              for j = k + 1 to Array.length extents - 1 do
                s := !s *. extents.(j)
              done;
              !s)
            extents
        in
        (d.array_name, { extents; strides }))
      kernel.arrays
  in
  let array_elements =
    List.map
      (fun (name, info) -> (name, Array.fold_left ( *. ) 1.0 info.extents))
      dims
  in
  let sc = scope_of env in
  let st = body_stats sc ~dims kernel.body in
  let roots = List.map (build_loop sc ~dims) st.s_loops in
  { roots; array_elements; straightline_stmts = st.s_stmts }

let rec fold_loops f acc ~entered node =
  let acc = f acc ~entered node in
  let inner_entered = entered *. node.trips in
  List.fold_left
    (fun acc child -> fold_loops f acc ~entered:inner_entered child)
    acc node.children

let fold t f init =
  List.fold_left (fun acc root -> fold_loops f acc ~entered:1.0 root) init
    t.roots

let total_iterations t =
  fold t (fun acc ~entered node -> acc +. (entered *. node.trips)) 0.0

let total_flops t =
  fold t (fun acc ~entered node -> acc +. (entered *. node.trips *. node.flops))
    0.0

let total_memory_accesses t =
  fold t
    (fun acc ~entered node ->
      acc
      +. entered *. node.trips
         *. float_of_int (List.length node.accesses))
    0.0

let rec innermost_code_size node =
  (* Instruction estimate: each assignment ~2 insts + its op counts; each
     nested loop contributes its body size once (code, not iterations). *)
  let own = (2.0 *. node.stmts) +. node.flops +. node.iops in
  List.fold_left
    (fun acc child -> acc +. innermost_code_size child +. 2.0)
    own node.children
