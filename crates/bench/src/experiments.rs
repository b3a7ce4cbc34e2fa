//! The experiment implementations, one per paper table/figure. Each
//! prints a human-readable table (ours vs. the paper's published value)
//! and returns a serializable summary for `results/experiments.json`.

use crate::harness::{
    cpu_serial_hd_per_frame, default_params, ladder_row, project_full_hd, run_level,
    standard_frames, standard_scene, LadderRow, SIM_FRAMES, SIM_RESOLUTION,
};
use crate::paper;
use crate::results::{eng, pct, rule};
use mogpu_core::kernels::TiledKernel;
use mogpu_core::pipeline::THREADS_PER_BLOCK;
use mogpu_core::{GpuMog, OptLevel};
use mogpu_frame::Resolution;
use mogpu_metrics::ms_ssim;
use mogpu_mog::{SerialMog, Variant};
use mogpu_sim::cpu::CpuModel;
use mogpu_sim::dma::{pipeline_time, transfer_time, OverlapMode};
use mogpu_sim::GpuConfig;
use serde_json::json;

/// E1 + E11: Table I hardware configuration and the Section IV-A baseline
/// numbers (CPU serial/SIMD/OpenMP, GPU base).
pub fn exp_baseline() -> serde_json::Value {
    let gpu = GpuConfig::tesla_c2075();
    let cpu_cfg = mogpu_sim::CpuConfig::xeon_e5_2620();
    println!("== E1/E11: hardware configuration (Table I) and baselines (Sec. IV-A) ==\n");
    println!(
        "GPU: {} — {} SMs x {} cores @ {:.2} GHz, {:.0} GB/s GDDR5",
        gpu.name,
        gpu.num_sms,
        gpu.cores_per_sm,
        gpu.clock_hz / 1e9,
        gpu.dram_peak_bw / 1e9
    );
    println!(
        "     peak single-precision: {:.2} TFLOPS (paper: 1.03)",
        gpu.peak_f32_flops() / 1e12
    );
    println!(
        "CPU: {} — {} cores @ {:.1} GHz, {:.1} GB/s DDR3\n",
        cpu_cfg.name,
        cpu_cfg.cores,
        cpu_cfg.clock_hz / 1e9,
        cpu_cfg.dram_bw / 1e9
    );

    let frames = standard_frames(SIM_FRAMES);
    let c = run_level::<f64>(OptLevel::C, default_params(3), &frames);
    let cpu = CpuModel::new(cpu_cfg);
    let scale = Resolution::FULL_HD.pixels() as f64 / SIM_RESOLUTION.pixels() as f64;
    let n = c.frames as f64;
    let serial_450 = cpu.serial_time(&c.stats) / n * scale * 450.0;
    let simd_450 = cpu.simd_time(&c.stats) / n * scale * 450.0;
    let mt_450 = cpu.multi_threaded_time(&c.stats) / n * scale * 450.0;

    let a = run_level::<f64>(OptLevel::A, default_params(3), &frames);
    let cfg = GpuConfig::tesla_c2075();
    let a_hd = project_full_hd(&a, OptLevel::A, &cfg);

    println!("450 full-HD frames, 3 Gaussians, double precision (modelled vs paper):");
    rule(64);
    println!(
        "{:<28} {:>10} {:>10} {:>10}",
        "build", "ours [s]", "paper [s]", "ratio"
    );
    rule(64);
    for (name, ours, paper_s) in [
        ("CPU serial -O3", serial_450, paper::CPU_SERIAL_450_FRAMES_S),
        (
            "CPU SIMD-customized",
            simd_450,
            paper::CPU_SIMD_450_FRAMES_S,
        ),
        ("CPU OpenMP 8 threads", mt_450, paper::CPU_MT_450_FRAMES_S),
        (
            "GPU base (level A)",
            a_hd.total_450_s,
            paper::GPU_BASE_450_FRAMES_S,
        ),
    ] {
        println!(
            "{:<28} {:>10.1} {:>10.1} {:>10.2}",
            name,
            ours,
            paper_s,
            ours / paper_s
        );
    }
    rule(64);
    let base_speedup = serial_450 / a_hd.total_450_s;
    println!("base GPU speedup: {base_speedup:.1}x (paper: 13x)\n");
    json!({
        "cpu_serial_450_s": serial_450,
        "cpu_simd_450_s": simd_450,
        "cpu_mt_450_s": mt_450,
        "gpu_base_450_s": a_hd.total_450_s,
        "base_speedup": base_speedup,
    })
}

/// E2 + E3: Fig. 6 — memory access efficiency, store transactions,
/// registers and occupancy across the general optimizations A, B, C.
pub fn exp_fig6() -> serde_json::Value {
    println!("== E2/E3: general GPU optimizations (Fig. 6) ==\n");
    let frames = standard_frames(SIM_FRAMES);
    let mut rows = Vec::new();
    for level in [OptLevel::A, OptLevel::B, OptLevel::C] {
        let r = run_level::<f64>(level, default_params(3), &frames);
        let hd = project_full_hd(&r, level, &GpuConfig::tesla_c2075());
        rows.push((level, r, hd));
    }
    println!(
        "{:<6} {:>10} {:>14} {:>8} {:>8}",
        "level", "memEff", "storeTx/frame", "regs", "occup"
    );
    rule(52);
    for (level, r, hd) in &rows {
        println!(
            "{:<6} {:>10} {:>14} {:>8} {:>8}",
            level.name(),
            pct(r.metrics.mem_access_efficiency),
            eng(hd.store_tx_per_frame),
            level.registers(8, 3),
            pct(r.occupancy.occupancy)
        );
    }
    rule(52);
    println!(
        "paper: memEff A {} -> B {}; storeTx A {} -> B {}; regs A 30 -> B 36\n",
        pct(paper::MEM_EFF_A),
        pct(paper::MEM_EFF_B),
        eng(paper::STORE_TX_A),
        eng(paper::STORE_TX_B)
    );
    json!(rows
        .iter()
        .map(|(level, r, hd)| json!({
            "level": level.name(),
            "mem_eff": r.metrics.mem_access_efficiency,
            "store_tx_per_frame": hd.store_tx_per_frame,
            "registers": level.registers(8, 3),
            "occupancy": r.occupancy.occupancy,
        }))
        .collect::<Vec<_>>())
}

/// E4: Fig. 5 — overlapped vs sequential transfers.
pub fn exp_overlap() -> serde_json::Value {
    println!("== E4: transfer/kernel overlap (Fig. 5, level B -> C) ==\n");
    let frames = standard_frames(SIM_FRAMES);
    let cfg = GpuConfig::tesla_c2075();
    let b = run_level::<f64>(OptLevel::B, default_params(3), &frames);
    let scale = Resolution::FULL_HD.pixels() as f64 / SIM_RESOLUTION.pixels() as f64;
    let kernel_hd = b.kernel_time_per_frame() * scale;
    let t_dir = transfer_time(Resolution::FULL_HD.pixels(), &cfg);
    let seq = pipeline_time(450, t_dir, kernel_hd, t_dir, OverlapMode::Sequential, &cfg);
    let ovl = pipeline_time(
        450,
        t_dir,
        kernel_hd,
        t_dir,
        OverlapMode::DoubleBuffered,
        &cfg,
    );
    println!("full-HD per-frame (same kernel, modelled):");
    println!("  H2D transfer      : {:.2} ms/direction", 1e3 * t_dir);
    println!("  kernel            : {:.2} ms", 1e3 * kernel_hd);
    println!("  sequential (B)    : {:.2} ms/frame", 1e3 * seq.per_frame);
    println!("  overlapped (C)    : {:.2} ms/frame", 1e3 * ovl.per_frame);
    println!(
        "  kernel utilization: {} -> {}",
        pct(seq.kernel_utilization),
        pct(ovl.kernel_utilization)
    );
    let transfer_share = 2.0 * t_dir / seq.per_frame;
    println!(
        "  transfer share of sequential frame: {} (paper: ~one third)",
        pct(transfer_share)
    );
    // What pinning host buffers (cudaMallocHost) would have bought: the
    // paper's ~1 GB/s effective PCIe implies pageable staging copies.
    let t_pinned = mogpu_sim::dma::transfer_time_pinned(Resolution::FULL_HD.pixels(), &cfg);
    let seq_pinned = pipeline_time(
        450,
        t_pinned,
        kernel_hd,
        t_pinned,
        OverlapMode::Sequential,
        &cfg,
    );
    println!(
        "  with pinned host memory, even sequential transfers shrink to {:.2} ms/frame",
        1e3 * seq_pinned.per_frame
    );
    println!();
    json!({
        "h2d_ms": 1e3 * t_dir,
        "kernel_ms": 1e3 * kernel_hd,
        "sequential_ms": 1e3 * seq.per_frame,
        "overlapped_ms": 1e3 * ovl.per_frame,
        "sequential_pinned_ms": 1e3 * seq_pinned.per_frame,
        "transfer_share_sequential": transfer_share,
    })
}

/// E5: Fig. 7 — branch/memory/register effects of the algorithm-specific
/// optimizations C -> F.
pub fn exp_fig7() -> serde_json::Value {
    println!("== E5: algorithm-specific optimizations (Fig. 7) ==\n");
    let frames = standard_frames(SIM_FRAMES);
    let cfg = GpuConfig::tesla_c2075();
    let mut rows = Vec::new();
    for level in [OptLevel::C, OptLevel::D, OptLevel::E, OptLevel::F] {
        let r = run_level::<f64>(level, default_params(3), &frames);
        let hd = project_full_hd(&r, level, &cfg);
        rows.push((level, r, hd));
    }
    println!(
        "{:<6} {:>14} {:>10} {:>10} {:>6} {:>8}",
        "level", "branches/frm", "brEff", "memEff", "regs", "occup"
    );
    rule(60);
    for (level, r, hd) in &rows {
        println!(
            "{:<6} {:>14} {:>10} {:>10} {:>6} {:>8}",
            level.name(),
            eng(hd.branch_slots_per_frame),
            pct(r.metrics.branch_efficiency),
            pct(r.metrics.mem_access_efficiency),
            level.registers(8, 3),
            pct(r.occupancy.occupancy)
        );
    }
    rule(60);
    println!(
        "paper: branches C {} -> D {}; branch eff E {}; regs 36/32/33/31;",
        eng(paper::BRANCHES_C),
        eng(paper::BRANCHES_D),
        pct(paper::BRANCH_EFF_E)
    );
    println!("       achieved occupancy C 52% / D 61% / E 56% / F 65%\n");
    json!(rows
        .iter()
        .map(|(level, r, hd)| json!({
            "level": level.name(),
            "branches_per_frame": hd.branch_slots_per_frame,
            "branch_eff": r.metrics.branch_efficiency,
            "mem_eff": r.metrics.mem_access_efficiency,
            "registers": level.registers(8, 3),
            "occupancy": r.occupancy.occupancy,
        }))
        .collect::<Vec<_>>())
}

/// E6: Fig. 8 — the headline speedup ladder A–F (+ W(8)) and the
/// efficiency summary.
pub fn exp_fig8() -> serde_json::Value {
    println!("== E6: speedup and efficiency summary (Fig. 8) ==\n");
    let frames = standard_frames(SIM_FRAMES);
    let c_ref = run_level::<f64>(OptLevel::C, default_params(3), &frames);
    let serial_hd = cpu_serial_hd_per_frame(&c_ref);
    let mut rows: Vec<LadderRow> = Vec::new();
    for level in OptLevel::LADDER
        .into_iter()
        .chain([OptLevel::Windowed { group: 8 }])
    {
        rows.push(ladder_row::<f64>(
            level,
            default_params(3),
            &frames,
            serial_hd,
        ));
    }
    print_ladder(&rows, &[13.0, 41.0, 57.0, 85.0, 86.0, 97.0, 101.0]);
    json!(rows)
}

fn print_ladder(rows: &[LadderRow], paper_speedups: &[f64]) {
    println!(
        "{:<6} {:>10} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "level", "kern ms", "e2e ms", "speedup", "paper", "brEff", "memEff", "occup"
    );
    rule(76);
    for (row, paper_s) in rows.iter().zip(paper_speedups) {
        println!(
            "{:<6} {:>10.2} {:>9.2} {:>8.1}x {:>8.0}x {:>9} {:>8} {:>8}",
            row.level,
            row.hd.kernel_ms,
            row.hd.e2e_ms,
            row.speedup,
            paper_s,
            pct(row.branch_eff),
            pct(row.mem_eff),
            pct(row.occupancy)
        );
    }
    rule(76);
    println!();
}

/// E7: Fig. 10 — windowed MoG group-size sweep.
pub fn exp_fig10() -> serde_json::Value {
    println!("== E7: windowed MoG vs frame-group size (Fig. 10) ==\n");
    let frames = standard_frames(SIM_FRAMES);
    let c_ref = run_level::<f64>(OptLevel::C, default_params(3), &frames);
    let serial_hd = cpu_serial_hd_per_frame(&c_ref);
    let mut rows = Vec::new();
    let f_row = ladder_row::<f64>(OptLevel::F, default_params(3), &frames, serial_hd);
    println!(
        "{:<8} {:>10} {:>9} {:>9} {:>8} {:>8}",
        "group", "kern ms", "e2e ms", "speedup", "memEff", "occup"
    );
    rule(58);
    println!(
        "{:<8} {:>10.2} {:>9.2} {:>8.1}x {:>8} {:>8}",
        "F (ref)",
        f_row.hd.kernel_ms,
        f_row.hd.e2e_ms,
        f_row.speedup,
        pct(f_row.mem_eff),
        pct(f_row.occupancy)
    );
    for group in [1usize, 2, 4, 8, 16, 32] {
        let row = ladder_row::<f64>(
            OptLevel::Windowed { group },
            default_params(3),
            &frames,
            serial_hd,
        );
        println!(
            "{:<8} {:>10.2} {:>9.2} {:>8.1}x {:>8} {:>8}",
            row.level,
            row.hd.kernel_ms,
            row.hd.e2e_ms,
            row.speedup,
            pct(row.mem_eff),
            pct(row.occupancy)
        );
        rows.push(row);
    }
    rule(58);
    println!("paper: peak 101x at group 8, flat beyond; occupancy ~40%;");
    println!("       memory efficiency >90% (g=1) declining to <60% (g=32)\n");
    json!({"f_ref": f_row, "sweep": rows})
}

/// E8: Table IV — MS-SSIM output quality of every level vs the CPU
/// double-precision ground truth.
pub fn exp_table4() -> serde_json::Value {
    println!("== E8: output quality (Table IV, MS-SSIM vs CPU f64 ground truth) ==\n");
    // QVGA so MS-SSIM gets its full 5 scales.
    let res = Resolution::QVGA;
    let scene = standard_scene(res);
    let n_frames = 48;
    let (frames, _) = scene.render_sequence(n_frames);
    let frames = frames.into_frames();
    let mut cpu = SerialMog::<f64>::new(
        res,
        default_params(3),
        Variant::Sorted,
        frames[0].as_slice(),
    );
    let truth = cpu.process_all(&frames[1..]);
    let start = truth.len() * 2 / 3;

    let mut rows = Vec::new();
    println!(
        "{:<8} {:>11} {:>11} {:>11} {:>11} {:>12}",
        "level", "bg ours", "bg paper", "fg ours", "fg paper", "px disagree"
    );
    rule(70);
    for (i, level) in OptLevel::LADDER.into_iter().enumerate() {
        let mut gpu = GpuMog::<f64>::new(
            res,
            default_params(3),
            level,
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )
        .expect("pipeline");
        let report = gpu.process_all(&frames[1..]).expect("processing");
        let mut fg_sum = 0.0;
        let mut bg_sum = 0.0;
        let mut n = 0.0;
        let mut differing = 0usize;
        let mut total_px = 0usize;
        for fi in start..truth.len() {
            fg_sum += ms_ssim(&report.masks[fi], &truth[fi]).expect("5 scales fit");
            let bg_a = background_image(&frames[fi + 1], &report.masks[fi]);
            let bg_b = background_image(&frames[fi + 1], &truth[fi]);
            bg_sum += ms_ssim(&bg_a, &bg_b).expect("5 scales fit");
            n += 1.0;
            total_px += truth[fi].len();
            differing += report.masks[fi]
                .as_slice()
                .iter()
                .zip(truth[fi].as_slice())
                .filter(|(a, b)| a != b)
                .count();
        }
        let (fg, bg) = (fg_sum / n, bg_sum / n);
        let disagree = differing as f64 / total_px as f64;
        println!(
            "{:<8} {:>11} {:>11} {:>11} {:>11} {:>12}",
            level.name(),
            pct(bg),
            pct(paper::TABLE4_BACKGROUND[i].1),
            pct(fg),
            pct(paper::TABLE4_FOREGROUND[i].1),
            format!("{:.4}%", 100.0 * disagree)
        );
        rows.push(json!({
            "level": level.name(),
            "bg_msssim": bg,
            "fg_msssim": fg,
            "pixel_disagreement": disagree,
        }));
    }
    rule(70);
    println!("note: levels A-E are arithmetically bit-identical to the sorted CPU");
    println!("reference by construction (MS-SSIM exactly 1); only level F's");
    println!("recomputed diff can disagree, and only on threshold-straddling");
    println!("pixels. The paper's larger drops stem from FP reorderings its");
    println!("hand-tuned CUDA introduced, which this reimplementation avoids.\n");
    json!(rows)
}

fn background_image(
    frame: &mogpu_frame::Frame<u8>,
    mask: &mogpu_frame::Mask,
) -> mogpu_frame::Frame<u8> {
    let mut out = frame.clone();
    for (o, &m) in out.as_mut_slice().iter_mut().zip(mask.as_slice()) {
        if m != 0 {
            *o = 0;
        }
    }
    out
}

/// E9: Fig. 11 — 3 vs 5 Gaussian components.
pub fn exp_fig11() -> serde_json::Value {
    println!("== E9: 3 vs 5 Gaussian components (Fig. 11) ==\n");
    let frames = standard_frames(SIM_FRAMES);
    let mut out = Vec::new();
    for k in [3usize, 5] {
        let c_ref = run_level::<f64>(OptLevel::C, default_params(k), &frames);
        let serial_hd = cpu_serial_hd_per_frame(&c_ref);
        let mut rows = Vec::new();
        println!(
            "{k} Gaussians (serial CPU full-HD: {:.0} ms/frame):",
            1e3 * serial_hd
        );
        for level in OptLevel::LADDER {
            rows.push(ladder_row::<f64>(
                level,
                default_params(k),
                &frames,
                serial_hd,
            ));
        }
        let paper_s: [f64; 6] = if k == 3 {
            [13.0, 41.0, 57.0, 85.0, 86.0, 97.0]
        } else {
            // Paper gives 44x at the end of general opts and 92x at the
            // end of algorithm-specific opts for 5G.
            [f64::NAN, f64::NAN, 44.0, f64::NAN, f64::NAN, 92.0]
        };
        print_ladder(&rows, &paper_s);
        out.push(json!({"k": k, "serial_hd_ms": 1e3 * serial_hd, "ladder": rows}));
    }
    println!(
        "paper 5G CPU serial: {:.1} s/450 frames (ours above x450); speedups 44x/92x\n",
        paper::CPU_SERIAL_5G_450_FRAMES_S
    );
    json!(out)
}

/// E10: Fig. 12 — double vs single precision.
pub fn exp_fig12() -> serde_json::Value {
    println!("== E10: double vs float (Fig. 12) ==\n");
    let frames = standard_frames(SIM_FRAMES);
    let mut out = Vec::new();
    // Double.
    {
        let c_ref = run_level::<f64>(OptLevel::C, default_params(3), &frames);
        let serial_hd = cpu_serial_hd_per_frame(&c_ref);
        let mut rows = Vec::new();
        println!(
            "double precision (serial CPU full-HD: {:.0} ms/frame):",
            1e3 * serial_hd
        );
        for level in OptLevel::LADDER {
            rows.push(ladder_row::<f64>(
                level,
                default_params(3),
                &frames,
                serial_hd,
            ));
        }
        print_ladder(&rows, &[13.0, 41.0, 57.0, 85.0, 86.0, 97.0]);
        out.push(json!({"precision": "double", "serial_hd_ms": 1e3 * serial_hd, "ladder": rows}));
    }
    // Float.
    {
        let c_ref = run_level::<f32>(OptLevel::C, default_params(3), &frames);
        let serial_hd = cpu_serial_hd_per_frame(&c_ref);
        let mut rows = Vec::new();
        println!(
            "single precision (serial CPU full-HD: {:.0} ms/frame):",
            1e3 * serial_hd
        );
        for level in OptLevel::LADDER {
            rows.push(ladder_row::<f32>(
                level,
                default_params(3),
                &frames,
                serial_hd,
            ));
        }
        print_ladder(
            &rows,
            &[f64::NAN, f64::NAN, f64::NAN, f64::NAN, f64::NAN, 105.0],
        );
        out.push(json!({"precision": "float", "serial_hd_ms": 1e3 * serial_hd, "ladder": rows}));
    }
    println!("paper: float F = 105x (vs double 97x); float serial CPU 180 s/450\n");
    json!(out)
}

/// Ablations of design choices DESIGN.md calls out: (a) shared-memory
/// layout bank conflicts in the tiled kernel; (b) timing-model latency
/// sensitivity.
pub fn exp_ablation() -> serde_json::Value {
    println!("== ablations ==\n");
    // (a) Tiled-kernel shared record stride: the tight paper-faithful
    // 18-word stride (2-way conflicts) vs records "aligned" to a power of
    // two (32-word stride: every lane lands in one bank, 32-way replays,
    // and the padding also costs occupancy).
    let frames = standard_frames(9);
    let res = SIM_RESOLUTION;
    let group = 8;
    let mut shared_rows = Vec::new();
    println!("(a) tiled-kernel shared record stride, group {group}:");
    println!(
        "{:<16} {:>14} {:>12} {:>12}",
        "stride", "sharedReplays", "issue cyc", "kern ms"
    );
    rule(58);
    for (name, stride) in [("9 doubles", None), ("16 doubles", Some(16usize))] {
        let report = run_tiled_with_layout(&frames, res, group, stride);
        println!(
            "{:<16} {:>14} {:>12.0} {:>12.4}",
            name,
            report.0,
            report.1,
            1e3 * report.2
        );
        shared_rows.push(json!({
            "stride": name,
            "shared_replays": report.0,
            "issue_cycles": report.1,
            "kernel_ms_per_frame": 1e3 * report.2,
        }));
    }
    rule(58);
    println!();

    // (b) Latency-model sensitivity: the calibrated 1100-cycle effective
    // latency vs a +-30% band, on the level-F speedup.
    let frames = standard_frames(SIM_FRAMES);
    let c_ref = run_level::<f64>(OptLevel::C, default_params(3), &frames);
    let serial_hd = cpu_serial_hd_per_frame(&c_ref);
    println!("(b) timing-model sensitivity to effective DRAM latency (level F):");
    println!("{:<12} {:>10} {:>10}", "latency", "kern ms", "speedup");
    rule(36);
    let mut lat_rows = Vec::new();
    for factor in [0.7, 1.0, 1.3] {
        let mut cfg = GpuConfig::tesla_c2075();
        cfg.mem_latency_cycles *= factor;
        let mut gpu = GpuMog::<f64>::new(
            res,
            default_params(3),
            OptLevel::F,
            frames[0].as_slice(),
            cfg.clone(),
        )
        .unwrap();
        let r = gpu.process_all(&frames[1..]).unwrap();
        let hd = project_full_hd(&r, OptLevel::F, &cfg);
        let speedup = serial_hd / (hd.e2e_ms / 1e3);
        println!(
            "{:<12} {:>10.2} {:>9.1}x",
            format!("{:.0} cyc", cfg.mem_latency_cycles),
            hd.kernel_ms,
            speedup
        );
        lat_rows.push(json!({
            "latency_cycles": cfg.mem_latency_cycles,
            "kernel_ms": hd.kernel_ms,
            "speedup": speedup,
        }));
    }
    rule(36);
    println!();

    // (c) The L2 cache model: verifies the base model's assumption that
    // MoG streams (cache off = cache on for coalesced kernels), and
    // quantifies the one exception — level A's interleaved AoS records,
    // where consecutive warp slots re-touch the same 128 B lines.
    println!("(c) 768 KB L2 cache model on/off:");
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "level", "tx (off)", "tx (on)", "L2 hit%"
    );
    rule(48);
    let mut cache_rows = Vec::new();
    for level in [OptLevel::A, OptLevel::F] {
        let off =
            run_level_with_cfg::<f64>(level, default_params(3), &frames, GpuConfig::tesla_c2075());
        let on = run_level_with_cfg::<f64>(
            level,
            default_params(3),
            &frames,
            GpuConfig::tesla_c2075_with_l2(),
        );
        let hit_rate =
            on.stats.l2_hits as f64 / (on.stats.l2_hits + on.stats.l2_misses).max(1) as f64;
        println!(
            "{:<10} {:>12} {:>12} {:>10}",
            level.name(),
            eng(off.stats.total_tx() as f64),
            eng(on.stats.total_tx() as f64),
            pct(hit_rate)
        );
        cache_rows.push(json!({
            "level": level.name(),
            "tx_no_cache": off.stats.total_tx(),
            "tx_with_cache": on.stats.total_tx(),
            "l2_hit_rate": hit_rate,
        }));
    }
    rule(48);
    println!();
    json!({
        "shared_layout": shared_rows,
        "latency_sensitivity": lat_rows,
        "l2_cache": cache_rows,
    })
}

/// Future work of the paper's Section VI: MoG on an **embedded GPU**,
/// where "achieving real-time performance will require to trade off
/// quality for speed". Sweeps precision and component count on the
/// Tegra-class integrated-GPU preset and reports which configurations
/// reach 30/60 Hz at which resolution.
pub fn exp_embedded() -> serde_json::Value {
    println!("== future work: MoG on an embedded integrated GPU ==\n");
    let cfg = GpuConfig::embedded_tegra();
    println!(
        "device: {} ({:.0} GFLOPS f32, {:.1} GB/s shared LPDDR3)\n",
        cfg.name,
        cfg.peak_f32_flops() / 1e9,
        cfg.dram_peak_bw / 1e9
    );

    let frames = standard_frames(17);
    let mut rows = Vec::new();
    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>8}",
        "config (level F/W8)", "QVGA fps", "720p fps", "1080p fps", "occup"
    );
    rule(68);
    for (name, k, f32p, windowed) in [
        ("double, 5G", 5usize, false, false),
        ("double, 3G", 3, false, false),
        ("float, 3G", 3, true, false),
        ("float, 3G, W(8)", 3, true, true),
    ] {
        let level = if windowed {
            OptLevel::Windowed { group: 8 }
        } else {
            OptLevel::F
        };
        let run = |frames: &[mogpu_frame::Frame<u8>]| {
            if f32p {
                run_level_with_cfg::<f32>(level, default_params(k), frames, cfg.clone())
            } else {
                run_level_with_cfg::<f64>(level, default_params(k), frames, cfg.clone())
            }
        };
        let report = run(&frames);
        // Project per-frame time to each target resolution and re-schedule
        // the pipeline with the embedded transfer path.
        let fps_at = |res: Resolution| {
            let scale = res.pixels() as f64 / SIM_RESOLUTION.pixels() as f64;
            let kernel = report.kernel_time_per_frame() * scale;
            let t_dir = transfer_time(res.pixels(), &cfg);
            let sched = pipeline_time(120, t_dir, kernel, t_dir, level.overlap(), &cfg);
            1.0 / sched.per_frame
        };
        let (qvga, hd, fhd) = (
            fps_at(Resolution::QVGA),
            fps_at(Resolution::HD),
            fps_at(Resolution::FULL_HD),
        );
        println!(
            "{:<24} {:>10.0} {:>10.0} {:>10.0} {:>8}",
            name,
            qvga,
            hd,
            fhd,
            pct(report.occupancy.occupancy)
        );
        rows.push(json!({
            "config": name, "fps_qvga": qvga, "fps_720p": hd, "fps_1080p": fhd,
            "occupancy": report.occupancy.occupancy,
        }));
    }
    rule(68);
    println!("real-time (>=30/60 fps) full-HD needs the quality-for-speed trades the");
    println!("paper anticipates: single precision and windowed shared-memory staging.\n");
    json!(rows)
}

/// Like [`run_level`] but with an explicit GPU configuration.
fn run_level_with_cfg<T: mogpu_core::DeviceReal>(
    level: OptLevel,
    params: mogpu_mog::MogParams,
    frames: &[mogpu_frame::Frame<u8>],
    cfg: GpuConfig,
) -> mogpu_core::RunReport {
    let mut gpu = GpuMog::<T>::new(
        frames[0].resolution(),
        params,
        level,
        frames[0].as_slice(),
        cfg,
    )
    .expect("pipeline construction");
    gpu.process_all(&frames[1..]).expect("processing")
}

/// Runs the tiled kernel directly (bypassing `GpuMog`) to toggle the
/// shared-memory layout. Returns (shared replays, issue cycles, modelled
/// kernel seconds per frame).
fn run_tiled_with_layout(
    frames: &[mogpu_frame::Frame<u8>],
    res: Resolution,
    group: usize,
    record_stride: Option<usize>,
) -> (u64, f64, f64) {
    use mogpu_core::kernels::FramePass;
    use mogpu_core::{DeviceModel, Layout};
    use mogpu_mog::HostModel;
    use mogpu_sim::{launch, DeviceMemory, LaunchConfig};

    let cfg = GpuConfig::tesla_c2075();
    let params = default_params(3);
    let pixels = res.pixels();
    let mut mem = DeviceMemory::with_config(&cfg);
    let model = DeviceModel::<f64>::alloc(&mut mem, Layout::Soa, pixels, params.k).unwrap();
    let host = HostModel::<f64>::init(pixels, params.k, &params, frames[0].as_slice());
    model.upload(&mut mem, &host);
    let mut frame_bufs = Vec::new();
    let mut fg_bufs = Vec::new();
    for _ in 0..group {
        frame_bufs.push(mem.alloc(pixels).unwrap());
        fg_bufs.push(mem.alloc(pixels).unwrap());
    }
    for (slot, f) in frames[1..1 + group].iter().enumerate() {
        mem.upload(frame_bufs[slot], f.as_slice());
    }
    let level = OptLevel::Windowed { group };
    let kernel = TiledKernel {
        pass: FramePass {
            model,
            frame: frame_bufs[0],
            fg: fg_bufs[0],
            pixels,
            prm: params.resolve(),
            resources: {
                let mut r = level.resources(THREADS_PER_BLOCK, params.k, 8);
                if let Some(stride) = record_stride {
                    r.shared_bytes_per_block = THREADS_PER_BLOCK as usize * stride * 8;
                }
                r
            },
        },
        frames: frame_bufs.clone(),
        fgs: fg_bufs.clone(),
        record_stride,
    };
    let report = launch(
        &mut mem,
        &cfg,
        LaunchConfig::cover(pixels, THREADS_PER_BLOCK),
        &kernel,
    )
    .unwrap();
    (
        report.stats.shared_replays,
        report.stats.issue_cycles,
        report.timing.total / group as f64,
    )
}

/// Section II validation: the variable-component-count approach of
/// related work \[18\]. The paper argues it helps CPUs ("boosts the
/// performance") but "may only yield limited benefits" on a GPU because
/// lockstep warps pay for their most complex pixel. This experiment runs
/// both sides on the same scene and reports the asymmetry.
pub fn exp_adaptive() -> serde_json::Value {
    use mogpu_core::AdaptiveGpuMog;
    println!("== Section II: fixed K=5 vs adaptive component count ([18]) ==\n");
    // A scene with *scattered* complexity: 25% bimodal pixels means
    // nearly every warp contains at least one multi-component pixel,
    // which is exactly the regime the paper's lockstep argument targets.
    let res = SIM_RESOLUTION;
    let frames = mogpu_frame::SceneBuilder::new(res)
        .seed(0x1CC_2014)
        .walkers(3)
        .bimodal_fraction(0.25)
        .bimodal_contrast(60.0)
        .noise_sd(2.0)
        .build()
        .render_sequence(SIM_FRAMES)
        .0
        .into_frames();
    let params = default_params(5);

    // Fixed K = 5, level-D-style kernel (branchy, no sort) for a fair
    // algorithmic comparison.
    let fixed = run_level::<f64>(OptLevel::D, params, &frames);

    // Adaptive, k_max = 5.
    let mut gpu =
        AdaptiveGpuMog::<f64>::new(res, params, frames[0].as_slice(), GpuConfig::tesla_c2075())
            .expect("pipeline");
    let adaptive = gpu.process_all(&frames[1..]).expect("processing");
    let mean_active = gpu.mean_active();

    let cpu = CpuModel::default();
    let cpu_fixed = cpu.serial_time(&fixed.stats) / fixed.frames as f64;
    let cpu_adaptive = cpu.serial_time(&adaptive.stats) / adaptive.frames as f64;
    let gpu_fixed = fixed.kernel_time_per_frame();
    let gpu_adaptive = adaptive.kernel_time_per_frame();

    println!("mean active components: {mean_active:.2} of 5\n");
    println!(
        "{:<26} {:>12} {:>12} {:>10}",
        "metric", "fixed K=5", "adaptive", "gain"
    );
    rule(64);
    println!(
        "{:<26} {:>12.3} {:>12.3} {:>9.2}x",
        "CPU serial ms/frame (model)",
        1e3 * cpu_fixed,
        1e3 * cpu_adaptive,
        cpu_fixed / cpu_adaptive
    );
    println!(
        "{:<26} {:>12.4} {:>12.4} {:>9.2}x",
        "GPU kernel ms/frame",
        1e3 * gpu_fixed,
        1e3 * gpu_adaptive,
        gpu_fixed / gpu_adaptive
    );
    println!(
        "{:<26} {:>12.0} {:>12.0} {:>9.2}x",
        "GPU issue cycles/frame",
        fixed.stats.issue_cycles / fixed.frames as f64,
        adaptive.stats.issue_cycles / adaptive.frames as f64,
        fixed.stats.issue_cycles / adaptive.stats.issue_cycles
    );
    println!(
        "{:<26} {:>12} {:>12}",
        "branch efficiency",
        pct(fixed.metrics.branch_efficiency),
        pct(adaptive.metrics.branch_efficiency)
    );
    println!(
        "{:<26} {:>12} {:>12}",
        "memory access efficiency",
        pct(fixed.metrics.mem_access_efficiency),
        pct(adaptive.metrics.mem_access_efficiency)
    );
    rule(64);
    let cpu_gain = cpu_fixed / cpu_adaptive;
    let gpu_gain = gpu_fixed / gpu_adaptive;
    let issue_gain = fixed.stats.issue_cycles / adaptive.stats.issue_cycles;
    let ideal = 5.0 / mean_active;
    println!("ideal (average-work) reduction: {ideal:.2}x.");
    println!("The paper's two arguments against adaptivity on GPUs, quantified:");
    println!("  1. lockstep: warps pay for their most complex pixel — the issue-");
    println!("     cycle gain ({issue_gain:.2}x) trails the ideal {ideal:.2}x;");
    println!(
        "  2. unbalanced accesses cut memory efficiency ({} -> {}).",
        pct(fixed.metrics.mem_access_efficiency),
        pct(adaptive.metrics.mem_access_efficiency)
    );
    println!("End-to-end, the latency-bound kernel still keeps much of the gain");
    println!("({gpu_gain:.2}x vs CPU {cpu_gain:.2}x) because partial warps issue fewer DRAM");
    println!("transactions — a nuance the first-order argument misses.\n");
    json!({
        "mean_active": mean_active,
        "cpu_ms_fixed": 1e3 * cpu_fixed,
        "cpu_ms_adaptive": 1e3 * cpu_adaptive,
        "gpu_ms_fixed": 1e3 * gpu_fixed,
        "gpu_ms_adaptive": 1e3 * gpu_adaptive,
        "cpu_gain": cpu_gain,
        "gpu_gain": gpu_gain,
        "branch_eff_fixed": fixed.metrics.branch_efficiency,
        "branch_eff_adaptive": adaptive.metrics.branch_efficiency,
        "mem_eff_fixed": fixed.metrics.mem_access_efficiency,
        "mem_eff_adaptive": adaptive.metrics.mem_access_efficiency,
    })
}

/// Portability study: the optimization ladder re-run on a Kepler-class
/// Tesla K20. The register-usage tricks (D -> F) were tuned to Fermi's
/// 32 K-register SM; on Kepler the register file stops being the
/// occupancy limiter and those steps flatten, while coalescing (A -> B)
/// and divergence/predication discipline keep paying — the
/// architecture-specificity the paper's title announces.
pub fn exp_portability() -> serde_json::Value {
    println!("== portability: the ladder on the next GPU generation ==\n");
    let frames = standard_frames(SIM_FRAMES);
    let mut out = Vec::new();
    for (name, cfg) in [
        ("Tesla C2075 (Fermi)", GpuConfig::tesla_c2075()),
        ("Tesla K20 (Kepler)", GpuConfig::tesla_k20()),
    ] {
        println!("{name}:");
        println!(
            "{:<6} {:>10} {:>8} {:>10}",
            "level", "kern ms", "occup", "vs A"
        );
        rule(40);
        let mut rows = Vec::new();
        let mut a_time = None;
        for level in OptLevel::LADDER {
            let r = run_level_with_cfg::<f64>(level, default_params(3), &frames, cfg.clone());
            let scale = Resolution::FULL_HD.pixels() as f64 / SIM_RESOLUTION.pixels() as f64;
            let kern_ms = 1e3 * r.kernel_time_per_frame() * scale;
            let a = *a_time.get_or_insert(kern_ms);
            println!(
                "{:<6} {:>10.2} {:>8} {:>9.2}x",
                level.name(),
                kern_ms,
                pct(r.occupancy.occupancy),
                a / kern_ms
            );
            rows.push(json!({
                "level": level.name(),
                "kernel_ms": kern_ms,
                "occupancy": r.occupancy.occupancy,
            }));
        }
        rule(40);
        println!();
        out.push(json!({"gpu": name, "ladder": rows}));
    }
    println!("on Kepler the D->F occupancy steps flatten (the register file no longer");
    println!("limits residency) while the A->B coalescing jump persists: the paper's");
    println!("algorithm/architecture co-tuning is, as titled, architecture-specific.\n");
    json!(out)
}

/// Multi-stream scaling: N live cameras multiplexed onto one device via
/// the CUDA-streams-style scheduler (per-stream model state, shared
/// compute/copy engines, double-buffered frames per stream). Aggregate
/// throughput must rise with stream count until the compute engine
/// saturates, while per-stream device latency stays bounded by the
/// 2-buffer cap.
pub fn exp_streams() -> serde_json::Value {
    use mogpu_core::MultiGpuMog;
    println!("== multi-stream scaling: live cameras sharing one device ==\n");
    let frames_per_stream = 13usize;
    let res = SIM_RESOLUTION;
    let scenes = |n: usize| -> Vec<Vec<mogpu_frame::Frame<u8>>> {
        (0..n)
            .map(|s| {
                mogpu_frame::SceneBuilder::new(res)
                    .seed(0x57_2014 + s as u64)
                    .walkers(2 + s % 3)
                    .bimodal_fraction(0.05)
                    .build()
                    .render_sequence(frames_per_stream)
                    .0
                    .into_frames()
            })
            .collect()
    };
    let run = |streams: &[Vec<mogpu_frame::Frame<u8>>], period: f64| {
        let seeds: Vec<&[u8]> = streams.iter().map(|f| f[0].as_slice()).collect();
        let mut multi = MultiGpuMog::<f64>::new(
            res,
            default_params(3),
            OptLevel::F,
            &seeds,
            GpuConfig::tesla_c2075(),
        )
        .expect("multi-stream pipeline")
        .with_arrival_period(period);
        let frames: Vec<Vec<mogpu_frame::Frame<u8>>> =
            streams.iter().map(|f| f[1..].to_vec()).collect();
        multi.process_all(&frames).expect("processing")
    };

    // Calibrate the camera rate off the single-stream offline run: each
    // camera delivers a frame every 6 kernel times, so one paced stream
    // leaves the compute engine ~5/6 idle.
    let one = scenes(1);
    let offline = run(&one, 0.0);
    let t_kernel = offline.per_stream[0].kernel_time_total / offline.per_stream[0].frames as f64;
    let period = 6.0 * t_kernel;
    let camera_fps = 1.0 / period;
    println!(
        "level F at {res}; cameras paced at {camera_fps:.0} fps (1 frame per 6 kernel times)\n"
    );

    println!(
        "{:<9} {:>11} {:>11} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "streams",
        "aggr fps",
        "ideal fps",
        "kern busy",
        "mean ms",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "max ms"
    );
    rule(96);
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8, 16] {
        let report = run(&scenes(n), period);
        let lat_mean = report
            .per_stream
            .iter()
            .map(|s| s.latency.mean)
            .sum::<f64>()
            / n as f64;
        // Tail latency across the whole fleet: percentiles of every
        // frame's sojourn pooled over streams (not a mean of per-stream
        // percentiles, which would understate the tail).
        let pooled: Vec<f64> = (0..n)
            .flat_map(|s| report.schedule.frame_latencies(s))
            .collect();
        let lat = mogpu_sim::streams::LatencyStats::from_samples(&pooled);
        let ideal = (n as f64 * camera_fps).min(1.0 / t_kernel);
        println!(
            "{:<9} {:>11.0} {:>11.0} {:>10} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
            n,
            report.aggregate_fps,
            ideal,
            pct(report.kernel_utilization),
            1e3 * lat_mean,
            1e3 * lat.p50,
            1e3 * lat.p95,
            1e3 * lat.p99,
            1e3 * report.worst_latency()
        );
        rows.push(json!({
            "streams": n,
            "aggregate_fps": report.aggregate_fps,
            "ideal_fps": ideal,
            "kernel_utilization": report.kernel_utilization,
            "latency_mean_ms": 1e3 * lat_mean,
            "latency_p50_ms": 1e3 * lat.p50,
            "latency_p95_ms": 1e3 * lat.p95,
            "latency_p99_ms": 1e3 * lat.p99,
            "latency_p999_ms": 1e3 * lat.p999,
            "latency_max_ms": 1e3 * report.worst_latency(),
        }));
    }
    rule(96);
    println!("aggregate throughput tracks n x camera rate until the compute engine");
    println!("saturates (~6 streams at this pacing), then plateaus at 1/kernel-time.");
    println!("Past saturation latency grows with cross-stream queueing but stays");
    println!("bounded by the 2-buffer cap — independent of how long the run is.\n");
    json!({
        "camera_fps": camera_fps,
        "kernel_s_per_frame": t_kernel,
        "sweep": rows,
    })
}
