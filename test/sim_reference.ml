(* The simulator's pricing path as it stood before its hot loops were
   rewritten: [Analysis.analyze] and [Machine.estimate], copied verbatim
   (only the type definitions are replaced by equations to the live
   modules' types, so results compare directly).  Test-only: the
   differential property in test_machine.ml requires the live code to
   agree with this reference bit for bit. *)

module Ast = Altune_kernellang.Ast

module Analysis = struct
  type access = Altune_kernellang.Analysis.access = {
    array : string;
    is_write : bool;
    coeffs : (string * float) list;
    offset : float;
    affine : bool;
  }

  type loop_node = Altune_kernellang.Analysis.loop_node = {
    index : string;
    trips : float;
    step : int;
    accesses : access list;
    flops : float;
    iops : float;
    stmts : float;
    children : loop_node list;
  }

  type t = Altune_kernellang.Analysis.t = {
    roots : loop_node list;
    array_elements : (string * float) list;
    straightline_stmts : float;
  }

  let innermost_code_size = Altune_kernellang.Analysis.innermost_code_size

  (* Environment: parameters and average values of live loop indices.
     [expansion] maps a live index whose lower bound depends on enclosing
     indices (strip-mined point loops: [for i = i_t to min(i_t + T - 1, ...)])
     to the fully-folded affine coefficients of that bound, so that an access
     subscripted by [i] is correctly seen to sweep with [i_t] as well. *)
  type env = {
    values : (string * float) list;
    live : string list;
    expansion : (string * (string * float) list) list;
  }

  exception Non_affine

  (* Numeric evaluation of an expression under average index values.  Used
     for loop bounds; Min/Max/Idiv are common there (tile edges, unroll
     remainder bounds). *)
  let rec eval_avg env (e : Ast.expr) : float =
    match e with
    | Int_lit n -> float_of_int n
    | Float_lit x -> x
    | Var x -> (
        match List.assoc_opt x env.values with
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

  (* Affine coefficient of [var] in an integer expression, with all other
     live indices treated as symbolic (coefficient extraction) and parameters
     as constants.  Raises [Non_affine] on products of two var-dependent
     terms, or Idiv/Mod/Min/Max applied to var-dependent operands. *)
  let rec coeff env var (e : Ast.expr) : float =
    let depends e = List.exists (fun v -> List.mem v env.live) (Ast.free_vars e) in
    match e with
    | Int_lit _ | Float_lit _ -> 0.0
    | Var x -> if x = var then 1.0 else 0.0
    | Index _ -> raise Non_affine
    | Neg a -> -.coeff env var a
    | Sqrt a -> if depends a then raise Non_affine else 0.0
    | Binop (Add, a, b) -> coeff env var a +. coeff env var b
    | Binop (Sub, a, b) -> coeff env var a -. coeff env var b
    | Binop (Mul, a, b) ->
        if not (depends a) then eval_avg env a *. coeff env var b
        else if not (depends b) then coeff env var a *. eval_avg env b
        else raise Non_affine
    | Binop ((Div | Idiv | Mod | Min | Max), a, b) ->
        if depends a || depends b then raise Non_affine else 0.0

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

  (* Row-major flat-offset coefficient: sum over dimensions of the subscript
     coefficient times the product of the extents of later dimensions. *)
  let access_of ~env ~dims ~is_write array subs =
    let rank = List.length subs in
    let extents =
      match List.assoc_opt array dims with
      | Some e -> e
      | None -> Array.make rank 1.0
    in
    let row_stride k =
      let s = ref 1.0 in
      for j = k + 1 to Array.length extents - 1 do
        s := !s *. extents.(j)
      done;
      !s
    in
    let env0 =
      (* All live indices at zero: evaluating a subscript in env0 yields the
         constant term of its affine form. *)
      {
        env with
        values =
          List.map
            (fun (name, v) -> if List.mem name env.live then (name, 0.0) else (name, v))
            env.values;
      }
    in
    match
      let raw =
        List.map
          (fun var ->
            let c = ref 0.0 in
            List.iteri
              (fun k sub -> c := !c +. (coeff env var sub *. row_stride k))
              subs;
            (var, !c))
          env.live
      in
      let lookup alist v =
        match List.assoc_opt v alist with Some c -> c | None -> 0.0
      in
      (* Fold bound-induced dependence: a subscript coefficient on a
         strip-mined point index also sweeps with the indices its lower
         bound ranges over. *)
      let coeffs =
        List.map
          (fun v ->
            let extra =
              List.fold_left
                (fun acc (u, cu) ->
                  match List.assoc_opt u env.expansion with
                  | Some exp_u -> acc +. (cu *. lookup exp_u v)
                  | None -> acc)
                0.0 raw
            in
            (v, lookup raw v +. extra))
          env.live
      in
      let offset = ref 0.0 in
      List.iteri
        (fun k sub -> offset := !offset +. (eval_avg env0 sub *. row_stride k))
        subs;
      (coeffs, !offset)
    with
    | coeffs, offset ->
        let coeffs = List.filter (fun (_, c) -> c <> 0.0) coeffs in
        { array; is_write; coeffs; offset; affine = true }
    | exception Non_affine ->
        { array; is_write; coeffs = []; offset = 0.0; affine = false }

  let rec exprs_of_cond (c : Ast.cond) =
    match c with
    | Cmp (_, a, b) -> [ a; b ]
    | And (a, b) | Or (a, b) -> exprs_of_cond a @ exprs_of_cond b
    | Not a -> exprs_of_cond a

  (* Direct statistics of statements under [s], stopping at nested loops,
     which are returned separately for recursion. *)
  let rec direct_stats ~env ~dims (s : Ast.stmt) =
    match s with
    | Assign (lhs, rhs) ->
        let rec accesses_of_expr e =
          match e with
          | Ast.Int_lit _ | Float_lit _ | Var _ -> []
          | Index (a, subs) ->
              access_of ~env ~dims ~is_write:false a subs
              :: List.concat_map accesses_of_expr subs
          | Binop (_, a, b) -> accesses_of_expr a @ accesses_of_expr b
          | Neg a | Sqrt a -> accesses_of_expr a
        in
        let write, wf, wi =
          match lhs with
          | Scalar_lhs _ -> ([], 0, 0)
          | Array_lhs (a, subs) ->
              let f, i =
                List.fold_left
                  (fun (f, i) s ->
                    let f', i' = count_ops s in
                    (f + f', i + i' + 1))
                  (0, 0) subs
              in
              ([ access_of ~env ~dims ~is_write:true a subs ], f, i)
        in
        let rf, ri = count_ops rhs in
        let reads = accesses_of_expr rhs in
        ( write @ reads,
          float_of_int (rf + wf),
          float_of_int (ri + wi),
          1.0,
          [] )
    | Seq ss ->
        List.fold_left
          (fun (a, f, i, n, loops) s ->
            let a', f', i', n', loops' = direct_stats ~env ~dims s in
            (a @ a', f +. f', i +. i', n +. n', loops @ loops'))
          ([], 0.0, 0.0, 0.0, []) ss
    | For l -> ([], 0.0, 0.0, 0.0, [ l ])
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
        let at, ft, it, nt, lt = direct_stats ~env ~dims t in
        let ae, fe, ie, ne, le =
          match e with
          | None -> ([], 0.0, 0.0, 0.0, [])
          | Some e -> direct_stats ~env ~dims e
        in
        ( at @ ae,
          ((ft +. fe) /. 2.0) +. float_of_int cond_iops,
          (it +. ie) /. 2.0,
          ((nt +. ne) /. 2.0) +. 1.0,
          lt @ le )

  let rec build_loop ~env ~dims (l : Ast.loop) : loop_node =
    let lo = try eval_avg env l.lo with Non_affine -> 0.0 in
    let hi = try eval_avg env l.hi with Non_affine -> lo -. 1.0 in
    (* Constant bounds get the exact floored trip count; bounds involving
       enclosing indices are mid-range averages, where keeping the
       fractional part is the better estimator (e.g. triangular loops). *)
    let depends_on_live e =
      List.exists (fun v -> List.mem v env.live) (Ast.free_vars e)
    in
    let raw = (hi -. lo) /. float_of_int l.step in
    let trips =
      if depends_on_live l.lo || depends_on_live l.hi then
        Float.max 0.0 (raw +. 1.0)
      else Float.max 0.0 (Float.floor raw +. 1.0)
    in
    let mid = (lo +. hi) /. 2.0 in
    (* Fully-folded expansion of this loop's lower bound over enclosing
       indices. *)
    let lo_expansion =
      let raw =
        List.filter_map
          (fun v ->
            match coeff env v l.lo with
            | c when c <> 0.0 -> Some (v, c)
            | _ -> None
            | exception Non_affine -> None)
          env.live
      in
      let lookup alist v =
        match List.assoc_opt v alist with Some c -> c | None -> 0.0
      in
      List.filter_map
        (fun v ->
          let extra =
            List.fold_left
              (fun acc (u, cu) ->
                match List.assoc_opt u env.expansion with
                | Some exp_u -> acc +. (cu *. lookup exp_u v)
                | None -> acc)
              0.0 raw
          in
          let total = lookup raw v +. extra in
          if total = 0.0 then None else Some (v, total))
        env.live
    in
    let env' =
      {
        values = (l.index, mid) :: env.values;
        live = l.index :: env.live;
        expansion =
          (if lo_expansion = [] then env.expansion
           else (l.index, lo_expansion) :: env.expansion);
      }
    in
    let accesses, flops, iops, stmts, loops =
      direct_stats ~env:env' ~dims l.body
    in
    let children = List.map (build_loop ~env:env' ~dims) loops in
    { index = l.index; trips; step = l.step; accesses; flops; iops; stmts;
      children }

  let analyze ?(param_overrides = []) (kernel : Ast.kernel) =
    let params =
      List.map
        (fun (name, v) ->
          match List.assoc_opt name param_overrides with
          | Some v' -> (name, float_of_int v')
          | None -> (name, float_of_int v))
        kernel.params
    in
    let env = { values = params; live = []; expansion = [] } in
    let dims =
      List.map
        (fun (d : Ast.array_decl) ->
          let extents =
            Array.of_list
              (List.map
                 (fun e -> try eval_avg env e with Non_affine -> 1.0)
                 d.dims)
          in
          (d.array_name, extents))
        kernel.arrays
    in
    let array_elements =
      List.map
        (fun (name, extents) -> (name, Array.fold_left ( *. ) 1.0 extents))
        dims
    in
    let _, _, _, straightline, loops = direct_stats ~env ~dims kernel.body in
    let roots = List.map (build_loop ~env ~dims) loops in
    { roots; array_elements; straightline_stmts = straightline }
end

module Machine = struct
  type cache_level = Altune_machine.Machine.cache_level = {
    size_bytes : float;
    line_bytes : float;
    latency_cycles : float;
  }

  type config = Altune_machine.Machine.config = {
    l1 : cache_level;
    l2 : cache_level;
    memory_latency : float;
    frequency_ghz : float;
    issue_width : float;
    num_fp_registers : int;
    icache_bytes : float;
    icache_penalty : float;
    flop_cycles : float;
    iop_cycles : float;
    loop_overhead_cycles : float;
    loop_setup_cycles : float;
    spill_cycles : float;
    element_bytes : float;
    bytes_per_instruction : float;
  }

  type breakdown = Altune_machine.Machine.breakdown = {
    compute_cycles : float;
    memory_cycles : float;
    overhead_cycles : float;
    spill_penalty_cycles : float;
    icache_penalty_cycles : float;
    total_cycles : float;
    seconds : float;
  }

  (* A stream groups accesses to the same array with identical affine
     coefficients: translated copies of one another, as unrolling produces.
     [distinct] counts distinct constant offsets (separate addresses),
     [mult] total accesses per iteration (for latency accounting). *)
  type stream = { rep : Analysis.access; distinct : float; mult : float }

  let streams_of_accesses (accesses : Analysis.access list) : stream list =
    let module M = Map.Make (struct
      type t = string * (string * float) list * bool

      let compare = compare
    end) in
    let add acc (a : Analysis.access) =
      let key = (a.array, a.coeffs, a.affine) in
      let offsets, mult =
        match M.find_opt key acc with
        | Some (offsets, mult) -> (offsets, mult)
        | None -> ([], 0.0)
      in
      let offsets =
        if List.mem a.offset offsets then offsets else a.offset :: offsets
      in
      M.add key (offsets, mult +. 1.0) acc
    in
    let grouped = List.fold_left add M.empty accesses in
    M.fold
      (fun (array, coeffs, affine) (offsets, mult) acc ->
        {
          rep = { array; coeffs; affine; offset = 0.0; is_write = false };
          distinct = float_of_int (List.length offsets);
          mult;
        }
        :: acc)
      grouped []

  (* Distinct bytes a stream touches across one full execution of the loop
     window [chain] (outermost first).  Bounded both by the iteration-space
     product and by the address span of the affine stream; the [distinct]
     translated copies of an unrolled stream fill in the gaps the enlarged
     loop step leaves. *)
  let footprint cfg (chain : Analysis.loop_node list) (st : stream) =
    let a = st.rep in
    if not a.affine then
      (* Unknown pattern: worst case, one line per iteration of the window. *)
      List.fold_left (fun acc (l : Analysis.loop_node) -> acc *. Float.max 1.0 l.trips)
        cfg.l1.line_bytes chain
    else begin
      let product = ref 1.0 in
      let span = ref 0.0 in
      let min_stride = ref infinity in
      List.iter
        (fun (l : Analysis.loop_node) ->
          match List.assoc_opt l.index a.coeffs with
          | Some c when c <> 0.0 ->
              let stride = Float.abs c *. float_of_int l.step in
              product := !product *. Float.max 1.0 l.trips;
              span := !span +. (stride *. Float.max 0.0 (l.trips -. 1.0));
              min_stride := Float.min !min_stride stride
          | Some _ | None -> ())
        chain;
      let elements =
        Float.min (!product *. st.distinct) (!span +. st.distinct)
      in
      (* Cache-line granularity: elements reached with a stride of a full
         line or more each occupy their own line; dense strides pack.  The
         distinct copies of a merged stream divide the effective stride. *)
      let bytes_per_element =
        if !min_stride = infinity then cfg.element_bytes
        else
          Float.min cfg.l1.line_bytes
            (Float.max cfg.element_bytes
               (!min_stride /. st.distinct *. cfg.element_bytes))
      in
      Float.max cfg.l1.line_bytes (elements *. bytes_per_element)
    end

  (* Working set of one full execution of [node]: sum of the footprints of
     every access in its subtree, each taken over the loops between [node]
     and the access.  Overlap between accesses to the same array is ignored
     (conservative). *)
  let working_set cfg (node : Analysis.loop_node) =
    let rec go chain node =
      let own =
        List.fold_left
          (fun acc st -> acc +. footprint cfg chain st)
          0.0
          (streams_of_accesses node.Analysis.accesses)
      in
      List.fold_left
        (fun acc child -> acc +. go (chain @ [ child ]) child)
        own node.Analysis.children
    in
    go [ node ] node

  (* Memory cost of one access executed [executions] times total, where
     [path] is the chain of enclosing loops outermost-first (last element is
     the loop whose body contains the access).

     Reuse-scope analysis: for a cache level C, find the outermost enclosing
     loop whose full-execution working set fits in C; everything fetched
     during one execution of that loop stays resident, so the number of
     fetches that miss C is (executions of that loop) x (distinct lines the
     access touches during one such execution). *)
  let access_cost cfg ~path ~ws_of_suffix (st : stream) =
    let a = st.rep in
    let n = List.length path in
    (* entries.(j) = number of times loop path[j] is entered; trips
       products of enclosing loops. *)
    let trips = Array.of_list (List.map (fun (l : Analysis.loop_node) -> Float.max 1.0 l.trips) path) in
    let entries = Array.make n 1.0 in
    for j = 1 to n - 1 do
      entries.(j) <- entries.(j - 1) *. trips.(j - 1)
    done;
    let total_executions = entries.(n - 1) *. trips.(n - 1) in
    let total_accesses = total_executions *. st.mult in
    let lines_touched j =
      (* Distinct lines touched during one full execution of path[j..]. *)
      let window = List.filteri (fun i _ -> i >= j) path in
      footprint cfg window st /. cfg.l1.line_bytes
    in
    let fetches_beyond level_size =
      (* Outermost j such that the working set of path[j..] fits. *)
      let rec find j =
        if j >= n then None
        else if ws_of_suffix j <= level_size then Some j
        else find (j + 1)
      in
      match find 0 with
      | Some j -> entries.(j) *. lines_touched j
      | None ->
          (* Not even one innermost-loop execution fits: miss on every
             access. *)
          total_accesses
    in
    if not a.affine then
      (* Gather: every execution reaches L2, half reach memory. *)
      total_accesses
      *. (cfg.l2.latency_cycles +. (0.5 *. cfg.memory_latency))
    else begin
      let l1_misses = Float.min (fetches_beyond cfg.l1.size_bytes) total_accesses in
      let l2_misses = Float.min (fetches_beyond cfg.l2.size_bytes) l1_misses in
      (total_accesses *. cfg.l1.latency_cycles)
      +. (l1_misses *. (cfg.l2.latency_cycles -. cfg.l1.latency_cycles))
      +. (l2_misses *. cfg.memory_latency)
    end

  let zero =
    {
      compute_cycles = 0.0;
      memory_cycles = 0.0;
      overhead_cycles = 0.0;
      spill_penalty_cycles = 0.0;
      icache_penalty_cycles = 0.0;
      total_cycles = 0.0;
      seconds = 0.0;
    }

  let add_breakdown a b =
    {
      compute_cycles = a.compute_cycles +. b.compute_cycles;
      memory_cycles = a.memory_cycles +. b.memory_cycles;
      overhead_cycles = a.overhead_cycles +. b.overhead_cycles;
      spill_penalty_cycles = a.spill_penalty_cycles +. b.spill_penalty_cycles;
      icache_penalty_cycles = a.icache_penalty_cycles +. b.icache_penalty_cycles;
      total_cycles = 0.0;
      seconds = 0.0;
    }

  (* Live float values in an innermost iteration: loop-invariant array
     elements are register-promoted, each statement needs a destination, and
     a few scratch temporaries. *)
  let register_pressure (node : Analysis.loop_node) =
    let invariant =
      List.filter
        (fun (a : Analysis.access) ->
          a.affine && not (List.mem_assoc node.index a.coeffs))
        node.accesses
    in
    (* Identical invariant references (e.g. the read and write of an
       accumulator) share one register. *)
    let distinct =
      List.sort_uniq compare
        (List.map
           (fun (a : Analysis.access) -> (a.array, a.coeffs, a.offset))
           invariant)
    in
    List.length distinct + int_of_float node.stmts + 4

  let rec cost_of_node cfg ~path ~path_ws (node : Analysis.loop_node) =
    (* [path_ws] carries the working set of each ancestor (computed once at
       that level) so suffix lookups do not recompute subtree footprints. *)
    let path = path @ [ node ] in
    let path_ws = path_ws @ [ working_set cfg node ] in
    let n = List.length path in
    let entries =
      List.fold_left
        (fun acc (l : Analysis.loop_node) -> acc *. Float.max 1.0 l.trips)
        1.0
        (List.filteri (fun i _ -> i < n - 1) path)
    in
    let iterations = entries *. Float.max 0.0 node.trips in
    let ws_arr = Array.of_list path_ws in
    let ws_of_suffix j = if j >= Array.length ws_arr then 0.0 else ws_arr.(j) in
    let mem =
      List.fold_left
        (fun acc st -> acc +. access_cost cfg ~path ~ws_of_suffix st)
        0.0
        (streams_of_accesses node.accesses)
    in
    let insts = (2.0 *. node.stmts) +. node.flops +. node.iops in
    let compute_per_iter =
      Float.max
        ((node.flops *. cfg.flop_cycles) +. (node.iops *. cfg.iop_cycles))
        (insts /. cfg.issue_width)
    in
    let compute = iterations *. compute_per_iter in
    let overhead =
      (entries *. cfg.loop_setup_cycles)
      +. (iterations *. cfg.loop_overhead_cycles)
    in
    let spill =
      if node.children = [] then begin
        let pressure = register_pressure node in
        let excess = float_of_int (max 0 (pressure - cfg.num_fp_registers)) in
        iterations *. excess *. cfg.spill_cycles
      end
      else 0.0
    in
    let icache =
      if node.children = [] then begin
        let code_bytes =
          Analysis.innermost_code_size node *. cfg.bytes_per_instruction
        in
        let overflow = Float.max 0.0 ((code_bytes /. cfg.icache_bytes) -. 1.0) in
        iterations *. overflow *. cfg.icache_penalty
      end
      else 0.0
    in
    let own =
      {
        zero with
        compute_cycles = compute;
        memory_cycles = mem;
        overhead_cycles = overhead;
        spill_penalty_cycles = spill;
        icache_penalty_cycles = icache;
      }
    in
    List.fold_left
      (fun acc child -> add_breakdown acc (cost_of_node cfg ~path ~path_ws child))
      own node.children

  let estimate cfg (a : Analysis.t) =
    let b =
      List.fold_left
        (fun acc root ->
          add_breakdown acc (cost_of_node cfg ~path:[] ~path_ws:[] root))
        zero a.roots
    in
    let straightline = a.straightline_stmts *. 2.0 /. cfg.issue_width in
    let total =
      b.compute_cycles +. b.memory_cycles +. b.overhead_cycles
      +. b.spill_penalty_cycles +. b.icache_penalty_cycles +. straightline
    in
    {
      b with
      compute_cycles = b.compute_cycles +. straightline;
      total_cycles = total;
      seconds = total /. (cfg.frequency_ghz *. 1e9);
    }

  let runtime_seconds cfg a = (estimate cfg a).seconds
end
