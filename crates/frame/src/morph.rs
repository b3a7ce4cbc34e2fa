//! Binary-mask post-processing: morphology and connected components.
//!
//! The paper's MoG reference (\[20\], Cheung & Kamath) follows background
//! subtraction with *foreground validation* — cleaning the raw mask and
//! reasoning about connected blobs. This module provides the standard
//! tool set: 3x3 erosion/dilation (and the opening/closing compositions)
//! plus two-pass connected-component labelling with per-blob statistics,
//! used by the examples to turn raw masks into object detections.
//!
//! All operations treat non-zero pixels as foreground and use the
//! 8-connected neighbourhood; borders are handled by clamping (pixels
//! outside the frame count as background).

use crate::frame::{Frame, Mask};

/// 3x3 erosion: a pixel survives only if its entire 8-neighbourhood (and
/// itself) is foreground.
pub fn erode3(mask: &Mask) -> Mask {
    let res = mask.resolution();
    let mut out = Mask::new(res);
    let w = res.width as isize;
    let h = res.height as isize;
    let src = mask.as_slice();
    let dst = out.as_mut_slice();
    for y in 0..h {
        for x in 0..w {
            let mut keep = true;
            'probe: for dy in -1..=1 {
                for dx in -1..=1 {
                    let (nx, ny) = (x + dx, y + dy);
                    if nx < 0 || ny < 0 || nx >= w || ny >= h {
                        keep = false;
                        break 'probe;
                    }
                    if src[(ny * w + nx) as usize] == 0 {
                        keep = false;
                        break 'probe;
                    }
                }
            }
            dst[(y * w + x) as usize] = if keep { 255 } else { 0 };
        }
    }
    out
}

/// 3x3 dilation: a pixel becomes foreground if any of its 8-neighbourhood
/// (or itself) is foreground.
pub fn dilate3(mask: &Mask) -> Mask {
    let res = mask.resolution();
    let mut out = Mask::new(res);
    let w = res.width as isize;
    let h = res.height as isize;
    let src = mask.as_slice();
    let dst = out.as_mut_slice();
    for y in 0..h {
        for x in 0..w {
            let mut hit = false;
            'probe: for dy in -1..=1 {
                for dx in -1..=1 {
                    let (nx, ny) = (x + dx, y + dy);
                    if nx >= 0 && ny >= 0 && nx < w && ny < h && src[(ny * w + nx) as usize] != 0 {
                        hit = true;
                        break 'probe;
                    }
                }
            }
            dst[(y * w + x) as usize] = if hit { 255 } else { 0 };
        }
    }
    out
}

/// Morphological opening (erode then dilate): removes speckle noise
/// smaller than the structuring element while preserving larger blobs.
pub fn open3(mask: &Mask) -> Mask {
    dilate3(&erode3(mask))
}

/// Morphological closing (dilate then erode): fills pinholes and joins
/// nearby fragments.
pub fn close3(mask: &Mask) -> Mask {
    erode3(&dilate3(mask))
}

/// A connected foreground component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blob {
    /// Label id (1-based; 0 is background).
    pub label: u32,
    /// Pixel count.
    pub area: usize,
    /// Bounding box, inclusive: (min_x, min_y, max_x, max_y).
    pub bbox: (usize, usize, usize, usize),
    /// Integer centroid (pixel-sum / area).
    pub centroid: (usize, usize),
}

impl Blob {
    /// Bounding-box width.
    pub fn width(&self) -> usize {
        self.bbox.2 - self.bbox.0 + 1
    }

    /// Bounding-box height.
    pub fn height(&self) -> usize {
        self.bbox.3 - self.bbox.1 + 1
    }
}

/// Two-pass 8-connected component labelling with union-find.
///
/// Returns the label image (0 = background, labels are 1-based and dense)
/// and the blob table sorted by descending area.
pub fn connected_components(mask: &Mask) -> (Frame<u32>, Vec<Blob>) {
    let res = mask.resolution();
    let w = res.width;
    let h = res.height;
    let src = mask.as_slice();
    let mut labels = Frame::<u32>::new(res);
    let mut parent: Vec<u32> = vec![0]; // parent[0] = background sentinel

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let up = parent[parent[x as usize] as usize];
            parent[x as usize] = up;
            x = up;
        }
        x
    }
    fn union(parent: &mut [u32], a: u32, b: u32) {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[hi as usize] = lo;
        }
    }

    // Pass 1: provisional labels from the already-visited half of the
    // 8-neighbourhood (W, NW, N, NE).
    {
        let data = labels.as_mut_slice();
        for y in 0..h {
            for x in 0..w {
                if src[y * w + x] == 0 {
                    continue;
                }
                let mut neighbour = 0u32;
                let mut consider = |lbl: u32, parent: &mut Vec<u32>| {
                    if lbl != 0 {
                        if neighbour == 0 {
                            neighbour = lbl;
                        } else {
                            union(parent, neighbour, lbl);
                        }
                    }
                };
                if x > 0 {
                    consider(data[y * w + x - 1], &mut parent);
                }
                if y > 0 {
                    if x > 0 {
                        consider(data[(y - 1) * w + x - 1], &mut parent);
                    }
                    consider(data[(y - 1) * w + x], &mut parent);
                    if x + 1 < w {
                        consider(data[(y - 1) * w + x + 1], &mut parent);
                    }
                }
                let lbl = if neighbour == 0 {
                    let new = parent.len() as u32;
                    parent.push(new);
                    new
                } else {
                    find(&mut parent, neighbour)
                };
                data[y * w + x] = lbl;
            }
        }
    }

    // Pass 2: resolve to dense root labels and accumulate statistics.
    let mut dense: Vec<u32> = vec![0; parent.len()];
    let mut next_dense = 0u32;
    let mut blobs: Vec<Blob> = Vec::new();
    let mut sums: Vec<(usize, usize)> = Vec::new();
    {
        let data = labels.as_mut_slice();
        for y in 0..h {
            for x in 0..w {
                let raw = data[y * w + x];
                if raw == 0 {
                    continue;
                }
                let root = find(&mut parent, raw);
                if dense[root as usize] == 0 {
                    next_dense += 1;
                    dense[root as usize] = next_dense;
                    blobs.push(Blob {
                        label: next_dense,
                        area: 0,
                        bbox: (x, y, x, y),
                        centroid: (0, 0),
                    });
                    sums.push((0, 0));
                }
                let d = dense[root as usize];
                data[y * w + x] = d;
                let b = &mut blobs[(d - 1) as usize];
                b.area += 1;
                b.bbox.0 = b.bbox.0.min(x);
                b.bbox.1 = b.bbox.1.min(y);
                b.bbox.2 = b.bbox.2.max(x);
                b.bbox.3 = b.bbox.3.max(y);
                let s = &mut sums[(d - 1) as usize];
                s.0 += x;
                s.1 += y;
            }
        }
    }
    for (b, s) in blobs.iter_mut().zip(&sums) {
        b.centroid = (s.0 / b.area, s.1 / b.area);
    }
    blobs.sort_by_key(|b| std::cmp::Reverse(b.area));
    (labels, blobs)
}

/// Removes blobs smaller than `min_area` pixels (in place on a copy).
pub fn remove_small_blobs(mask: &Mask, min_area: usize) -> Mask {
    let (labels, blobs) = connected_components(mask);
    let keep: Vec<bool> = {
        let mut by_label = vec![false; blobs.len() + 1];
        for b in &blobs {
            by_label[b.label as usize] = b.area >= min_area;
        }
        by_label
    };
    let mut out = Mask::new(mask.resolution());
    for (o, &l) in out.as_mut_slice().iter_mut().zip(labels.as_slice()) {
        *o = if l != 0 && keep[l as usize] { 255 } else { 0 };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolution::Resolution;

    fn mask_from(rows: &[&str]) -> Mask {
        let h = rows.len();
        let w = rows[0].len();
        let mut data = Vec::with_capacity(w * h);
        for r in rows {
            for c in r.chars() {
                data.push(if c == '#' { 255 } else { 0 });
            }
        }
        Mask::from_vec(Resolution::new(w, h), data).unwrap()
    }

    #[test]
    fn erosion_removes_single_pixels() {
        let m = mask_from(&[".....", ".#...", "...##", "...##", "....."]);
        let e = erode3(&m);
        assert!(e.as_slice().iter().all(|&p| p == 0), "nothing is 3x3-solid");
    }

    #[test]
    fn erosion_keeps_solid_interior() {
        let m = mask_from(&["#####", "#####", "#####", "#####", "#####"]);
        let e = erode3(&m);
        // Interior 3x3 survives; the border (clamped to background) goes.
        assert_eq!(*e.get(2, 2), 255);
        assert_eq!(*e.get(0, 0), 0);
        assert_eq!(e.fraction_set(), 9.0 / 25.0);
    }

    #[test]
    fn dilation_grows_by_one() {
        let m = mask_from(&[".....", ".....", "..#..", ".....", "....."]);
        let d = dilate3(&m);
        assert_eq!(d.fraction_set(), 9.0 / 25.0);
        assert_eq!(*d.get(1, 1), 255);
        assert_eq!(*d.get(4, 4), 0);
    }

    #[test]
    fn opening_removes_speckle_keeps_blobs() {
        let m = mask_from(&["#.......", "...####.", "...####.", "...####.", "#......."]);
        let o = open3(&m);
        assert_eq!(*o.get(0, 0), 0, "speckle removed");
        assert_eq!(*o.get(4, 2), 255, "blob interior kept");
    }

    #[test]
    fn closing_fills_pinholes() {
        let m = mask_from(&["#####", "##.##", "#####"]);
        let c = close3(&m);
        assert_eq!(*c.get(2, 1), 255, "pinhole filled");
    }

    #[test]
    fn components_count_and_stats() {
        let m = mask_from(&["##...#", "##...#", "......", "...##."]);
        let (labels, blobs) = connected_components(&m);
        assert_eq!(blobs.len(), 3);
        // Sorted by area: the 2x2 block first.
        assert_eq!(blobs[0].area, 4);
        assert_eq!(blobs[0].bbox, (0, 0, 1, 1));
        assert_eq!(blobs[0].centroid, (0, 0)); // (0+1+0+1)/4 = 0 (integer)
        let areas: Vec<usize> = blobs.iter().map(|b| b.area).collect();
        assert_eq!(areas, vec![4, 2, 2]);
        // Labels are dense and match the mask support.
        let fg = m.as_slice().iter().filter(|&&p| p != 0).count();
        let labelled = labels.as_slice().iter().filter(|&&l| l != 0).count();
        assert_eq!(fg, labelled);
    }

    #[test]
    fn diagonal_pixels_are_one_component() {
        // 8-connectivity joins diagonals.
        let m = mask_from(&["#..", ".#.", "..#"]);
        let (_, blobs) = connected_components(&m);
        assert_eq!(blobs.len(), 1);
        assert_eq!(blobs[0].area, 3);
    }

    #[test]
    fn u_shape_merges_via_union_find() {
        // The two arms get different provisional labels and must merge at
        // the bottom — the classic union-find case.
        let m = mask_from(&["#.#", "#.#", "###"]);
        let (_, blobs) = connected_components(&m);
        assert_eq!(blobs.len(), 1);
        assert_eq!(blobs[0].area, 7);
    }

    #[test]
    fn remove_small_blobs_filters_by_area() {
        let m = mask_from(&["##....", "##....", "....#."]);
        let cleaned = remove_small_blobs(&m, 3);
        assert_eq!(*cleaned.get(0, 0), 255);
        assert_eq!(*cleaned.get(4, 2), 0);
    }

    #[test]
    fn empty_mask_has_no_blobs() {
        let m = Mask::new(Resolution::new(8, 8));
        let (labels, blobs) = connected_components(&m);
        assert!(blobs.is_empty());
        assert!(labels.as_slice().iter().all(|&l| l == 0));
    }

    #[test]
    fn blob_dimensions() {
        let m = mask_from(&["......", ".####.", ".####.", "......"]);
        let (_, blobs) = connected_components(&m);
        assert_eq!(blobs[0].width(), 4);
        assert_eq!(blobs[0].height(), 2);
        assert_eq!(blobs[0].centroid, (2, 1));
    }
}
