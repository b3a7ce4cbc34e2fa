//! Device-side Gaussian parameter layouts: the coalescing optimization of
//! Section IV-B (paper Fig. 4).
//!
//! * [`Layout::Aos`] — "array of structures": pixel-major, parameters of
//!   one pixel's components adjacent in memory. Natural translation of the
//!   CPU data structure; catastrophic on the GPU because 32 threads
//!   reading the same parameter of 32 consecutive pixels stride 72 B
//!   (3 components x 3 f64 parameters) through DRAM.
//! * [`Layout::Soa`] — "structure of arrays": each parameter of each
//!   component stored in its own contiguous plane indexed by pixel, so a
//!   warp's simultaneous accesses land in consecutive addresses — the
//!   coalesced layout of optimization level B.

use crate::device::DeviceReal;
use mogpu_mog::HostModel;
use mogpu_sim::{lanes, lanes_in, Buffer, DeviceMemory, Lanes, Mask, MemoryError, WarpCtx};

/// Gaussian parameter memory layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Pixel-major interleaved parameters (non-coalesced; level A).
    Aos,
    /// Parameter planes indexed by pixel (coalesced; levels B+).
    Soa,
}

/// The Gaussian mixture model resident in device memory.
///
/// Index convention (`pixel` in `0..pixels`, `ki` in `0..k`):
/// * AoS: element `(pixel*k + ki)*3 + param` of one buffer, `param` being
///   0 = weight, 1 = mean, 2 = sd;
/// * SoA: element `ki*pixels + pixel` of the per-parameter buffer.
#[derive(Debug, Clone, Copy)]
pub struct DeviceModel<T: DeviceReal> {
    layout: Layout,
    k: usize,
    pixels: usize,
    /// AoS: the single interleaved buffer; SoA: the weight plane.
    buf_w: Buffer,
    /// SoA: the mean plane (aliases `buf_w` under AoS).
    buf_m: Buffer,
    /// SoA: the sd plane (aliases `buf_w` under AoS).
    buf_sd: Buffer,
    _marker: std::marker::PhantomData<T>,
}

impl<T: DeviceReal> DeviceModel<T> {
    /// Allocates device storage for `pixels * k` components.
    ///
    /// # Errors
    /// Propagates device out-of-memory.
    pub fn alloc(
        mem: &mut DeviceMemory,
        layout: Layout,
        pixels: usize,
        k: usize,
    ) -> Result<Self, MemoryError> {
        let n = pixels * k;
        let (buf_w, buf_m, buf_sd) = match layout {
            Layout::Aos => {
                let b = mem.alloc(n * 3 * T::BYTES)?;
                (b, b, b)
            }
            Layout::Soa => (
                mem.alloc(n * T::BYTES)?,
                mem.alloc(n * T::BYTES)?,
                mem.alloc(n * T::BYTES)?,
            ),
        };
        Ok(DeviceModel {
            layout,
            k,
            pixels,
            buf_w,
            buf_m,
            buf_sd,
            _marker: std::marker::PhantomData,
        })
    }

    /// The layout in use.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Components per pixel.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Pixels covered.
    pub fn pixels(&self) -> usize {
        self.pixels
    }

    /// Total device bytes held by the model.
    pub fn bytes(&self) -> usize {
        self.pixels * self.k * 3 * T::BYTES
    }

    /// Byte intervals of the model's device buffers — the write set a
    /// dataflow recorder attributes to host-side model initialization.
    /// Under AoS the three handles alias one buffer; the set dedupes.
    pub fn span_set(&self) -> mogpu_sim::IntervalSet {
        let mut s = mogpu_sim::IntervalSet::new();
        for b in [self.buf_w, self.buf_m, self.buf_sd] {
            s.insert(b.addr(), b.addr() + b.len() as u64);
        }
        s
    }

    #[inline]
    fn index(&self, pixel: usize, ki: usize, param: usize) -> (Buffer, usize) {
        debug_assert!(pixel < self.pixels && ki < self.k && param < 3);
        match self.layout {
            Layout::Aos => (self.buf_w, (pixel * self.k + ki) * 3 + param),
            Layout::Soa => {
                let buf = match param {
                    0 => self.buf_w,
                    1 => self.buf_m,
                    _ => self.buf_sd,
                };
                (buf, ki * self.pixels + pixel)
            }
        }
    }

    // ---- kernel-side access (traced) ----

    /// [`DeviceModel::index`] per lane: the buffer of `param` and each
    /// lane's element of `(pixel[l], ki[l])`. Inactive lanes may hold
    /// any pixel (threads past the problem size); only `active` ones are
    /// checked, and the accessors touch only those.
    #[inline]
    fn index_lanes(
        &self,
        active: Mask,
        pixel: &Lanes<usize>,
        ki: &Lanes<usize>,
        param: usize,
    ) -> (Buffer, Lanes<usize>) {
        debug_assert!(lanes_in(active).all(|l| pixel[l] < self.pixels && ki[l] < self.k));
        match self.layout {
            Layout::Aos => (
                self.buf_w,
                lanes(|l| {
                    (pixel[l].wrapping_mul(self.k).wrapping_add(ki[l]))
                        .wrapping_mul(3)
                        .wrapping_add(param)
                }),
            ),
            Layout::Soa => {
                let buf = match param {
                    0 => self.buf_w,
                    1 => self.buf_m,
                    _ => self.buf_sd,
                };
                (
                    buf,
                    lanes(|l| ki[l].wrapping_mul(self.pixels).wrapping_add(pixel[l])),
                )
            }
        }
    }

    /// Loads each active lane's component weight.
    #[track_caller]
    #[inline]
    pub fn ld_w_warp(
        &self,
        w: &mut WarpCtx<'_>,
        pixel: &Lanes<usize>,
        ki: &Lanes<usize>,
    ) -> Lanes<T> {
        let (b, i) = self.index_lanes(w.active(), pixel, ki, 0);
        T::ld_warp(w, b, &i)
    }

    /// Loads each active lane's component mean.
    #[track_caller]
    #[inline]
    pub fn ld_m_warp(
        &self,
        w: &mut WarpCtx<'_>,
        pixel: &Lanes<usize>,
        ki: &Lanes<usize>,
    ) -> Lanes<T> {
        let (b, i) = self.index_lanes(w.active(), pixel, ki, 1);
        T::ld_warp(w, b, &i)
    }

    /// Loads each active lane's component standard deviation.
    #[track_caller]
    #[inline]
    pub fn ld_sd_warp(
        &self,
        w: &mut WarpCtx<'_>,
        pixel: &Lanes<usize>,
        ki: &Lanes<usize>,
    ) -> Lanes<T> {
        let (b, i) = self.index_lanes(w.active(), pixel, ki, 2);
        T::ld_warp(w, b, &i)
    }

    /// Stores each active lane's component weight.
    #[track_caller]
    #[inline]
    pub fn st_w_warp(
        &self,
        w: &mut WarpCtx<'_>,
        pixel: &Lanes<usize>,
        ki: &Lanes<usize>,
        v: &Lanes<T>,
    ) {
        let (b, i) = self.index_lanes(w.active(), pixel, ki, 0);
        T::st_warp(w, b, &i, v);
    }

    /// Stores each active lane's component mean.
    #[track_caller]
    #[inline]
    pub fn st_m_warp(
        &self,
        w: &mut WarpCtx<'_>,
        pixel: &Lanes<usize>,
        ki: &Lanes<usize>,
        v: &Lanes<T>,
    ) {
        let (b, i) = self.index_lanes(w.active(), pixel, ki, 1);
        T::st_warp(w, b, &i, v);
    }

    /// Stores each active lane's component standard deviation.
    #[track_caller]
    #[inline]
    pub fn st_sd_warp(
        &self,
        w: &mut WarpCtx<'_>,
        pixel: &Lanes<usize>,
        ki: &Lanes<usize>,
        v: &Lanes<T>,
    ) {
        let (b, i) = self.index_lanes(w.active(), pixel, ki, 2);
        T::st_warp(w, b, &i, v);
    }

    // ---- host-side transfer (untimed; model parameters live on the
    // device for the whole run, exactly as the paper arranges) ----

    /// Uploads a host model into device memory.
    ///
    /// # Panics
    /// Panics if the host model's shape differs.
    pub fn upload(&self, mem: &mut DeviceMemory, host: &HostModel<T>) {
        assert_eq!(host.pixels(), self.pixels, "pixel count mismatch");
        assert_eq!(host.k(), self.k, "component count mismatch");
        for pixel in 0..self.pixels {
            for ki in 0..self.k {
                let (w, m, sd) = host.pixel(pixel);
                self.host_write(mem, pixel, ki, 0, w[ki]);
                self.host_write(mem, pixel, ki, 1, m[ki]);
                self.host_write(mem, pixel, ki, 2, sd[ki]);
            }
        }
    }

    /// Downloads the device model into a host model (for verification).
    pub fn download(&self, mem: &DeviceMemory, template: &HostModel<T>) -> HostModel<T> {
        assert_eq!(template.pixels(), self.pixels, "pixel count mismatch");
        let mut host = template.clone();
        for pixel in 0..self.pixels {
            for ki in 0..self.k {
                let w = self.host_read(mem, pixel, ki, 0);
                let m = self.host_read(mem, pixel, ki, 1);
                let sd = self.host_read(mem, pixel, ki, 2);
                let (hw, hm, hsd) = host.pixel_mut(pixel);
                hw[ki] = w;
                hm[ki] = m;
                hsd[ki] = sd;
            }
        }
        host
    }

    /// Host-side write of all three parameters of one component (used by
    /// pipelines that seed without a full `HostModel`).
    pub fn host_write_params(
        &self,
        mem: &mut DeviceMemory,
        pixel: usize,
        ki: usize,
        w: T,
        m: T,
        sd: T,
    ) {
        self.host_write(mem, pixel, ki, 0, w);
        self.host_write(mem, pixel, ki, 1, m);
        self.host_write(mem, pixel, ki, 2, sd);
    }

    fn host_write(&self, mem: &mut DeviceMemory, pixel: usize, ki: usize, param: usize, v: T) {
        let (b, i) = self.index(pixel, ki, param);
        if T::BYTES == 8 {
            mem.write_f64(b, i, v.to_f64());
        } else {
            mem.write_f32(b, i, v.to_f64() as f32);
        }
    }

    fn host_read(&self, mem: &DeviceMemory, pixel: usize, ki: usize, param: usize) -> T {
        let (b, i) = self.index(pixel, ki, param);
        if T::BYTES == 8 {
            T::from_f64(mem.read_f64(b, i))
        } else {
            T::from_f64(mem.read_f32(b, i) as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogpu_mog::MogParams;

    fn host_model(pixels: usize, k: usize) -> HostModel<f64> {
        let frame: Vec<u8> = (0..pixels).map(|i| (i * 13 % 251) as u8).collect();
        HostModel::init(pixels, k, &MogParams::new(k), &frame)
    }

    #[test]
    fn upload_download_round_trip_soa() {
        let mut mem = DeviceMemory::new(1 << 22);
        let host = host_model(100, 3);
        let dev: DeviceModel<f64> = DeviceModel::alloc(&mut mem, Layout::Soa, 100, 3).unwrap();
        dev.upload(&mut mem, &host);
        let back = dev.download(&mem, &host);
        assert_eq!(host, back);
    }

    #[test]
    fn upload_download_round_trip_aos() {
        let mut mem = DeviceMemory::new(1 << 22);
        let host = host_model(64, 5);
        let dev: DeviceModel<f64> = DeviceModel::alloc(&mut mem, Layout::Aos, 64, 5).unwrap();
        dev.upload(&mut mem, &host);
        let back = dev.download(&mem, &host);
        assert_eq!(host, back);
    }

    #[test]
    fn f32_round_trip() {
        let mut mem = DeviceMemory::new(1 << 22);
        let frame: Vec<u8> = (0..50).map(|i| i as u8).collect();
        let host: HostModel<f32> = HostModel::init(50, 3, &MogParams::default(), &frame);
        let dev: DeviceModel<f32> = DeviceModel::alloc(&mut mem, Layout::Soa, 50, 3).unwrap();
        dev.upload(&mut mem, &host);
        assert_eq!(dev.download(&mem, &host), host);
    }

    #[test]
    fn aos_uses_one_third_the_allocations() {
        let mut mem_aos = DeviceMemory::new(1 << 22);
        let a: DeviceModel<f64> = DeviceModel::alloc(&mut mem_aos, Layout::Aos, 128, 3).unwrap();
        let mut mem_soa = DeviceMemory::new(1 << 22);
        let s: DeviceModel<f64> = DeviceModel::alloc(&mut mem_soa, Layout::Soa, 128, 3).unwrap();
        assert_eq!(a.bytes(), s.bytes());
        assert_eq!(a.bytes(), 128 * 3 * 3 * 8);
    }

    #[test]
    fn oom_is_reported() {
        let mut mem = DeviceMemory::new(1024);
        let r: Result<DeviceModel<f64>, _> =
            DeviceModel::alloc(&mut mem, Layout::Soa, 1_000_000, 3);
        assert!(r.is_err());
    }

    #[test]
    fn soa_addresses_are_pixel_contiguous() {
        // The coalescing premise: for a fixed component/parameter,
        // consecutive pixels map to consecutive element indices.
        let mut mem = DeviceMemory::new(1 << 22);
        let dev: DeviceModel<f64> = DeviceModel::alloc(&mut mem, Layout::Soa, 100, 3).unwrap();
        let (b0, i0) = dev.index(10, 1, 1);
        let (b1, i1) = dev.index(11, 1, 1);
        assert_eq!(b0, b1);
        assert_eq!(i1, i0 + 1);
    }

    #[test]
    fn aos_addresses_stride_by_component_record() {
        let mut mem = DeviceMemory::new(1 << 22);
        let dev: DeviceModel<f64> = DeviceModel::alloc(&mut mem, Layout::Aos, 100, 3).unwrap();
        let (_, i0) = dev.index(10, 0, 0);
        let (_, i1) = dev.index(11, 0, 0);
        assert_eq!(i1 - i0, 9, "AoS stride must be k*3 elements");
    }
}
