//! Modelled (simulated Fermi) numbers of a fixed window of each pipeline's
//! frames, projected to the paper's full-HD 450-frame setting at the
//! resolution the workload actually ran (the library's own projection
//! assumes the QQVGA simulation resolution).

use mogpu::bench::paper;
use mogpu::core::RunReport;
use mogpu::prelude::{GpuConfig, OptLevel, Resolution};
use mogpu::sim::dma::{pipeline_time, transfer_time};
use mogpu::sim::{DerivedMetrics, KernelStats, Occupancy};

/// Frames in each pipeline's model window: the warm-up group plus the
/// first timed groups, the 32 processed frames of the experiments'
/// standard run (`mogpu::bench::SIM_FRAMES` minus the seed frame).
pub const WINDOW_FRAMES: usize = mogpu::bench::SIM_FRAMES - 1;

/// Accumulates one pipeline's reports until its window is full.
#[derive(Debug, Clone)]
pub struct Window {
    pub level: OptLevel,
    pub frames: usize,
    pub calls: usize,
    kernel_time: f64,
    pub stats: KernelStats,
    occupancy: Option<Occupancy>,
}

impl Window {
    pub fn new(level: OptLevel) -> Self {
        Window {
            level,
            frames: 0,
            calls: 0,
            kernel_time: 0.0,
            stats: KernelStats::default(),
            occupancy: None,
        }
    }

    pub fn is_full(&self) -> bool {
        self.frames >= WINDOW_FRAMES
    }

    /// Adds a call's report while the window is still open.
    pub fn add(&mut self, report: &RunReport) {
        if self.is_full() {
            return;
        }
        self.frames += report.frames;
        self.calls += 1;
        self.kernel_time += report.kernel_time_total;
        self.stats.merge(&report.stats);
        self.occupancy = Some(report.occupancy);
    }

    /// Projects the window to full HD from the run resolution `res`.
    pub fn project(&self, res: Resolution, cfg: &GpuConfig) -> LevelModel {
        let scale = Resolution::FULL_HD.pixels() as f64 / res.pixels() as f64;
        let frames = self.frames.max(1) as f64;
        let kernel_hd = self.kernel_time / frames * scale;
        let t_dma = transfer_time(Resolution::FULL_HD.pixels(), cfg);
        let sched = pipeline_time(
            paper::PAPER_FRAMES,
            t_dma,
            kernel_hd,
            t_dma,
            self.level.overlap(),
            cfg,
        );
        let metrics = DerivedMetrics::from_stats(&self.stats, cfg);
        let fps_hd = 1.0 / sched.per_frame;
        LevelModel {
            name: short_name(self.level),
            kernel_ms_hd: 1e3 * kernel_hd,
            e2e_ms_hd: 1e3 * sched.per_frame,
            occupancy: self.occupancy.map_or(f64::NAN, |o| o.occupancy),
            branch_eff: metrics.branch_efficiency,
            mem_eff: metrics.mem_access_efficiency,
            store_tx_hd: metrics.store_transactions as f64 / frames * scale,
            fps_hd,
            err_pct: 100.0 * (fps_hd / paper_fps_hd(self.level) - 1.0).abs(),
        }
    }
}

/// One level's modelled full-HD numbers.
#[derive(Debug, Clone)]
pub struct LevelModel {
    pub name: String,
    pub kernel_ms_hd: f64,
    pub e2e_ms_hd: f64,
    pub occupancy: f64,
    pub branch_eff: f64,
    pub mem_eff: f64,
    pub store_tx_hd: f64,
    pub fps_hd: f64,
    pub err_pct: f64,
}

impl LevelModel {
    /// The per-layer metrics of this level, named `model.*.<level>.*`.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let n = &self.name;
        vec![
            (format!("model.kernel.{n}.ms_hd"), self.kernel_ms_hd),
            (format!("model.kernel.{n}.occupancy"), self.occupancy),
            (format!("model.kernel.{n}.branch_eff"), self.branch_eff),
            (format!("model.kernel.{n}.mem_eff"), self.mem_eff),
            (format!("model.kernel.{n}.store_tx_hd"), self.store_tx_hd),
            (format!("model.pipeline.{n}.e2e_ms_hd"), self.e2e_ms_hd),
        ]
    }

    pub fn is_finite(&self) -> bool {
        [
            self.kernel_ms_hd,
            self.e2e_ms_hd,
            self.occupancy,
            self.branch_eff,
            self.mem_eff,
            self.store_tx_hd,
            self.fps_hd,
            self.err_pct,
        ]
        .iter()
        .all(|v| v.is_finite())
    }
}

/// Metric-name form of a level: "A".."F", "W8".
pub fn short_name(level: OptLevel) -> String {
    match level {
        OptLevel::Windowed { group } => format!("W{group}"),
        other => other.name(),
    }
}

/// The paper's full-HD frame rate of a level: 450 frames over the serial
/// CPU time divided by the level's reported speedup.
pub fn paper_fps_hd(level: OptLevel) -> f64 {
    let speedup = match level {
        OptLevel::Windowed { .. } => paper::SPEEDUP_WINDOWED,
        other => {
            let c = other.name().chars().next().expect("level name");
            paper::SPEEDUPS_LADDER
                .iter()
                .find(|(l, _)| *l == c)
                .map(|(_, s)| *s)
                .expect("every ladder level has a paper speedup")
        }
    };
    paper::PAPER_FRAMES as f64 * speedup / paper::CPU_SERIAL_450_FRAMES_S
}

/// Modelled full-HD DMA milliseconds per frame and direction.
pub fn h2d_ms_hd(cfg: &GpuConfig) -> f64 {
    1e3 * transfer_time(Resolution::FULL_HD.pixels(), cfg)
}

/// The workload's headline numbers: level F's modelled full-HD fps and the
/// mean error against the paper over every level the workload ran.
pub fn headline(levels: &[LevelModel]) -> (f64, f64) {
    let f = levels
        .iter()
        .find(|l| l.name == "F")
        .expect("every workload runs level F");
    let err = levels.iter().map(|l| l.err_pct).sum::<f64>() / levels.len() as f64;
    (f.fps_hd, err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fps_follows_speedup() {
        // Level A: 13x over 227.3 s for 450 frames.
        assert!((paper_fps_hd(OptLevel::A) - 450.0 * 13.0 / 227.3).abs() < 1e-9);
        assert!(paper_fps_hd(OptLevel::Windowed { group: 8 }) > paper_fps_hd(OptLevel::F));
    }
}
