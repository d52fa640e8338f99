(* Span-based phase timing with a Chrome-trace-format exporter.

   Spans nest by call structure ([span]) or by an explicit per-domain
   begin/end stack. Completed spans are recorded as Chrome "complete"
   events (ph:"X"); viewers (chrome://tracing, Perfetto) reconstruct
   the nesting per thread id from ts/dur containment, so one flat
   buffer per domain suffices. *)

type event = {
  name : string;
  args : (string * string) list;
  ts_us : float;
  dur_us : float;
  tid : int;
}

type buffer = {
  mutable events : event list;
  mutable stack : (string * float) list;  (* open begin_/end_ spans *)
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* All timestamps are microseconds since process start, so a trace
   merged from several domains shares one time base. *)
let epoch = Unix.gettimeofday ()

let buffers : buffer Sharded.t =
  Sharded.create (fun () -> { events = []; stack = [] })

let tid () = (Domain.self () :> int)

let record ?(args = []) name ~t0 ~t1 =
  let buf = Sharded.get buffers in
  buf.events <-
    {
      name;
      args;
      ts_us = (t0 -. epoch) *. 1e6;
      dur_us = (t1 -. t0) *. 1e6;
      tid = tid ();
    }
    :: buf.events

let span ?args name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> record ?args name ~t0 ~t1:(Unix.gettimeofday ()))
      f
  end

let begin_ name =
  if enabled () then begin
    let buf = Sharded.get buffers in
    buf.stack <- (name, Unix.gettimeofday ()) :: buf.stack
  end

let end_ () =
  if enabled () then begin
    let buf = Sharded.get buffers in
    match buf.stack with
    | [] -> ()  (* unmatched end_: ignore rather than poison the campaign *)
    | (name, t0) :: rest ->
        buf.stack <- rest;
        record name ~t0 ~t1:(Unix.gettimeofday ())
  end

let events () =
  Sharded.fold buffers ~init:[] ~f:(fun acc b -> List.rev_append b.events acc)
  |> List.sort (fun a b -> Float.compare a.ts_us b.ts_us)

(* Minimal JSON string escape — span names are code-controlled, but a
   stray quote (or a netlist-supplied label in [args]) must not corrupt
   the trace file. *)
let escape s =
  let buf = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let export_chrome () =
  let evs = events () in
  let buf = Buffer.create (256 + (96 * List.length evs)) in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n{\"name\":\"%s\",\"cat\":\"mcdft\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f"
           (escape e.name) e.tid e.ts_us e.dur_us);
      if e.args <> [] then begin
        Buffer.add_string buf ",\"args\":{";
        List.iteri
          (fun k (key, v) ->
            if k > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "\"%s\":\"%s\"" (escape key) (escape v)))
          e.args;
        Buffer.add_char buf '}'
      end;
      Buffer.add_char buf '}')
    evs;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (export_chrome ()))

let reset () =
  Sharded.iter buffers ~f:(fun b ->
      b.events <- [];
      b.stack <- [])
