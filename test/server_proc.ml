(* Real slicer-server processes for the suites that drive one over
   loopback (test_net's durability and settlement cases, test_cluster's
   shard drill): where the binary is, a scratch state directory, a
   spawn that waits for the listening banner, and a start that must be
   refused. *)

let server_exe () =
  List.find_opt Sys.file_exists
    [ "../bin/slicer_server.exe";
      "_build/default/bin/slicer_server.exe";
      "bin/slicer_server.exe" ]

let fresh_state_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "slicer-net-dur-%d-%d" (Unix.getpid ()) !n)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let server_args ~records ~port ~dir =
  [ "--records"; string_of_int records; "--port"; string_of_int port; "--state-dir"; dir;
    "--log-level"; "quiet"; "--metrics-interval"; "0" ]

(* A durable server on [port] (0 = any), fsync on, that self-seeds
   [records] records into a fresh state dir (0 = starts empty). Returns
   its pid, the read end of its stdout and the port it bound. *)
let spawn_server ?(extra = []) ?(port = 0) ~records ~exe ~dir () =
  let out_r, out_w = Unix.pipe () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv = Array.of_list ((exe :: server_args ~records ~port ~dir) @ extra) in
  let pid = Unix.create_process exe argv null out_w Unix.stderr in
  Unix.close out_w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr out_r in
  (* The server prints "listening on HOST:PORT" once bound. *)
  let rec find_port () =
    match input_line ic with
    | line ->
      (match String.rindex_opt line ':' with
       | Some i
         when String.length line > 13 && String.sub line 0 13 = "listening on " ->
         (match int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
          | Some port -> port
          | None -> find_port ())
       | _ -> find_port ())
    | exception End_of_file ->
      ignore (Unix.kill pid Sys.sigkill);
      Alcotest.fail "server exited before listening"
  in
  let port = find_port () in
  (pid, out_r, port)

(* A server that must refuse to start: run it on [dir] (port 0) until it
   exits, at most 30 s, and return its exit status and stderr. *)
let refused_start ?(extra = []) ~records ~exe ~dir () =
  let err_r, err_w = Unix.pipe () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv = Array.of_list ((exe :: server_args ~records ~port:0 ~dir) @ extra) in
  let pid = Unix.create_process exe argv null null err_w in
  Unix.close err_w;
  Unix.close null;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Thread.delay 0.05;
      reap ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.fail "a server that must refuse to start kept running"
    | _, status -> status
  in
  let status = reap () in
  let ic = Unix.in_channel_of_descr err_r in
  let err = In_channel.input_all ic in
  close_in ic;
  (status, err)
