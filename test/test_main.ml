let () =
  Alcotest.run "gemmini"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("sim", Test_sim.suite);
      ("alloc", Test_alloc.suite);
      ("trace", Test_trace.suite);
      ("mem", Test_mem.suite);
      ("vm", Test_vm.suite);
      ("mesh", Test_mesh.suite);
      ("isa", Test_isa.suite);
      ("synthesis", Test_synthesis.suite);
      ("dnn", Test_dnn.suite);
      ("sw", Test_sw.suite);
      ("runtime", Test_runtime.suite);
      ("backend", Test_backend.suite);
      ("soc", Test_soc.suite);
      ("loop_ws", Test_loop_ws.suite);
      ("fault", Test_fault.suite);
      ("persist", Test_persist.suite);
      ("serve", Test_serve.suite);
      ("dse", Test_dse.suite);
      ("experiments", Test_experiments.suite);
      ("check", Test_check.suite);
      ("codegen", Test_codegen.suite);
    ]
