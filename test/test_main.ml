let () =
  Alcotest.run "qcomp"
    [
      ("i128", Test_i128.suite);
      ("hashes", Test_hashes.suite);
      ("vec", Test_vec.suite);
      ("bitset", Test_bitset.suite);
      ("btree", Test_btree.suite);
      ("rng", Test_rng.suite);
      ("timing", Test_timing.suite);
      ("ir", Test_ir.suite);
      ("graph", Test_graph.suite);
      ("asm", Test_asm.suite);
      ("emu", Test_emu.suite);
      ("runtime", Test_runtime.suite);
      ("htable", Test_htable.suite);
      ("expr", Test_expr.suite);
      ("storage", Test_storage.suite);
      ("codegen", Test_codegen.suite);
      ("layout", Test_layout.suite);
      ("interp", Test_interp.suite);
      ("engine", Test_engine.suite);
      ("elf", Test_elf.suite);
      ("jitlink", Test_jitlink.suite);
      ("cparse", Test_cparse.suite);
      ("lpasses", Test_lpasses.suite);
      ("backends", Test_backends.suite);
      ("stencil", Test_stencil.suite);
      ("workloads", Test_workloads.suite);
      ("fuzz-plans", Test_fuzz_plans.suite);
      ("props-extra", Test_props_extra.suite);
      ("emu-oracle", Test_emu_oracle.suite);
      ("server", Test_server.suite);
      ("param", Test_param.suite);
      ("load", Test_load.suite);
      ("morsel", Test_morsel.suite);
      ("cycle-model", Test_cycle_model.suite);
    ]
