//! Minimal video/image I/O: binary PGM (P5) images and Y4M (YUV4MPEG2,
//! C420/mono luma) sequences.
//!
//! The paper evaluates on surveillance footage we cannot redistribute;
//! these readers/writers let users run the pipeline on their own captures
//! and inspect the synthetic scenes and foreground masks with standard
//! tools (`ffplay`, ImageMagick).

use crate::frame::{Frame, FrameError, FrameSequence};
use crate::resolution::Resolution;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from image/video I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not in the expected format.
    Format(String),
    /// Frame/resolution mismatch.
    Frame(FrameError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Format(m) => write!(f, "format error: {m}"),
            IoError::Frame(e) => write!(f, "frame error: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<FrameError> for IoError {
    fn from(e: FrameError) -> Self {
        IoError::Frame(e)
    }
}

/// Largest frame the readers accept, in pixels: 8192 x 8192, above
/// 8K UHD (7680 x 4320). A header declaring more is rejected before any
/// pixel buffer is allocated, so a hostile or corrupt header cannot
/// request an unbounded allocation or overflow the pixel count.
pub const MAX_PIXELS: usize = 8192 * 8192;

/// Checks the dimensions a header declares: both nonzero and at most
/// [`MAX_PIXELS`] pixels in all.
fn header_resolution(width: usize, height: usize) -> Result<Resolution, IoError> {
    if width == 0 || height == 0 {
        return Err(IoError::Format(format!(
            "frame size {width}x{height} has no pixels"
        )));
    }
    match width.checked_mul(height) {
        Some(pixels) if pixels <= MAX_PIXELS => Ok(Resolution::new(width, height)),
        _ => Err(IoError::Format(format!(
            "frame size {width}x{height} exceeds the {MAX_PIXELS}-pixel limit"
        ))),
    }
}

// ---- PGM (P5, 8-bit) ----

/// Writes a frame as a binary PGM (P5).
///
/// # Errors
/// Underlying I/O errors.
pub fn write_pgm<W: Write>(frame: &Frame<u8>, w: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(w);
    write!(w, "P5\n{} {}\n255\n", frame.width(), frame.height())?;
    w.write_all(frame.as_slice())?;
    w.flush()?;
    Ok(())
}

/// Writes a frame as a binary PGM file.
///
/// # Errors
/// Underlying I/O errors.
pub fn save_pgm<P: AsRef<Path>>(frame: &Frame<u8>, path: P) -> Result<(), IoError> {
    write_pgm(frame, std::fs::File::create(path)?)
}

/// Reads a binary PGM (P5, maxval 255).
///
/// # Errors
/// [`IoError::Format`] for non-P5 or non-8-bit files and for zero or
/// more than [`MAX_PIXELS`] pixels; I/O errors.
pub fn read_pgm<R: Read>(r: R) -> Result<Frame<u8>, IoError> {
    let mut r = BufReader::new(r);
    let mut magic = [0u8; 2];
    r.read_exact(&mut magic)?;
    if &magic != b"P5" {
        return Err(IoError::Format("not a binary PGM (P5) file".into()));
    }
    let width = read_pnm_token(&mut r)?;
    let height = read_pnm_token(&mut r)?;
    let maxval = read_pnm_token(&mut r)?;
    if maxval != 255 {
        return Err(IoError::Format(format!(
            "unsupported maxval {maxval} (want 255)"
        )));
    }
    let res = header_resolution(width, height)?;
    let data = read_payload(&mut r, res.pixels())?;
    Ok(Frame::from_vec(res, data)?)
}

/// Bytes a payload buffer first grows to.
const FIRST_PAYLOAD_CHUNK: usize = 64 * 1024;

/// Reads exactly `len` payload bytes. The buffer doubles as bytes
/// arrive, from [`FIRST_PAYLOAD_CHUNK`] up to exactly `len`, so a header
/// that declares more than the input holds allocates about twice what is
/// present, not what it declares.
///
/// # Errors
/// An [`io::ErrorKind::UnexpectedEof`] I/O error if the input ends
/// first, as from `read_exact`.
fn read_payload<R: Read>(r: &mut R, len: usize) -> Result<Vec<u8>, IoError> {
    let mut data = Vec::new();
    while data.len() < len {
        let filled = data.len();
        let target = (2 * filled).max(FIRST_PAYLOAD_CHUNK).min(len);
        data.reserve_exact(target - filled);
        data.resize(target, 0);
        r.read_exact(&mut data[filled..])?;
    }
    Ok(data)
}

/// Reads a PGM file.
///
/// # Errors
/// See [`read_pgm`].
pub fn load_pgm<P: AsRef<Path>>(path: P) -> Result<Frame<u8>, IoError> {
    read_pgm(std::fs::File::open(path)?)
}

/// Parses one whitespace-delimited PNM header integer, skipping `#`
/// comments. A token longer than any `usize` is refused as it is read.
fn read_pnm_token<R: BufRead>(r: &mut R) -> Result<usize, IoError> {
    const MAX_DIGITS: usize = 20;
    let mut tok = String::new();
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let c = byte[0] as char;
        if c == '#' {
            // Skip to end of line.
            let mut junk = String::new();
            r.read_line(&mut junk)?;
            continue;
        }
        if c.is_ascii_whitespace() {
            if tok.is_empty() {
                continue;
            }
            break;
        }
        if !c.is_ascii_digit() {
            return Err(IoError::Format(format!(
                "unexpected character {c:?} in PNM header"
            )));
        }
        if tok.len() == MAX_DIGITS {
            return Err(IoError::Format(format!("PNM integer {tok}... is too long")));
        }
        tok.push(c);
    }
    tok.parse()
        .map_err(|_| IoError::Format(format!("bad PNM integer {tok:?}")))
}

// ---- Y4M (YUV4MPEG2) ----

/// Writes a luma sequence as YUV4MPEG2 with C420 chroma (chroma planes
/// filled with neutral 128), playable by `ffplay`/`mpv`.
///
/// # Errors
/// Underlying I/O errors; [`IoError::Format`] for odd dimensions (C420
/// requires even width/height) or an empty sequence.
pub fn write_y4m<W: Write>(seq: &FrameSequence<u8>, fps: u32, w: W) -> Result<(), IoError> {
    if seq.is_empty() {
        return Err(IoError::Format("empty sequence".into()));
    }
    let res = seq.resolution();
    if !res.width.is_multiple_of(2) || !res.height.is_multiple_of(2) {
        return Err(IoError::Format(format!(
            "C420 needs even dimensions, got {res}"
        )));
    }
    let mut w = BufWriter::new(w);
    writeln!(
        w,
        "YUV4MPEG2 W{} H{} F{}:1 Ip A1:1 C420",
        res.width, res.height, fps
    )?;
    let chroma = vec![128u8; res.pixels() / 4];
    for frame in seq.iter() {
        w.write_all(b"FRAME\n")?;
        w.write_all(frame.as_slice())?;
        w.write_all(&chroma)?; // U
        w.write_all(&chroma)?; // V
    }
    w.flush()?;
    Ok(())
}

/// Reads a YUV4MPEG2 stream's luma plane (C420 or Cmono).
///
/// # Errors
/// [`IoError::Format`] for unsupported colourspaces, malformed headers
/// and frames of zero or more than [`MAX_PIXELS`] pixels.
pub fn read_y4m<R: Read>(r: R) -> Result<FrameSequence<u8>, IoError> {
    let mut r = BufReader::new(r);
    let mut header = String::new();
    r.read_line(&mut header)?;
    if !header.starts_with("YUV4MPEG2") {
        return Err(IoError::Format("not a YUV4MPEG2 stream".into()));
    }
    let mut width = None;
    let mut height = None;
    let mut chroma_div = 4usize; // C420 default
    for tok in header.split_whitespace().skip(1) {
        match tok.chars().next() {
            Some('W') => width = tok[1..].parse().ok(),
            Some('H') => height = tok[1..].parse().ok(),
            Some('C') => {
                chroma_div = match &tok[1..] {
                    c if c.starts_with("420") => 4,
                    "mono" => 0,
                    other => {
                        return Err(IoError::Format(format!("unsupported colourspace C{other}")))
                    }
                };
            }
            _ => {}
        }
    }
    let (width, height) = match (width, height) {
        (Some(w), Some(h)) => (w, h),
        _ => return Err(IoError::Format("missing W/H in Y4M header".into())),
    };
    let res = header_resolution(width, height)?;
    let mut seq = FrameSequence::new(res);
    loop {
        let mut frame_line = String::new();
        if r.read_line(&mut frame_line)? == 0 {
            break; // clean EOF
        }
        if !frame_line.starts_with("FRAME") {
            return Err(IoError::Format(format!(
                "expected FRAME, got {frame_line:?}"
            )));
        }
        let luma = read_payload(&mut r, res.pixels())?;
        if let Some(chroma_len) = res.pixels().checked_div(chroma_div) {
            read_payload(&mut r, chroma_len * 2)?; // chroma, unused
        }
        seq.push(Frame::from_vec(res, luma)?)?;
    }
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::SceneBuilder;

    fn test_frame() -> Frame<u8> {
        let res = Resolution::new(6, 4);
        let data: Vec<u8> = (0..res.pixels()).map(|i| (i * 11 % 256) as u8).collect();
        Frame::from_vec(res, data).unwrap()
    }

    #[test]
    fn pgm_round_trip() {
        let f = test_frame();
        let mut buf = Vec::new();
        write_pgm(&f, &mut buf).unwrap();
        let g = read_pgm(buf.as_slice()).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn pgm_header_format() {
        let f = test_frame();
        let mut buf = Vec::new();
        write_pgm(&f, &mut buf).unwrap();
        assert!(buf.starts_with(b"P5\n6 4\n255\n"));
        assert_eq!(buf.len(), b"P5\n6 4\n255\n".len() + 24);
    }

    #[test]
    fn pgm_with_comments_parses() {
        let data = b"P5\n# a comment line\n2 2\n255\n\x01\x02\x03\x04";
        let f = read_pgm(&data[..]).unwrap();
        assert_eq!(f.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn pgm_rejects_wrong_magic() {
        let data = b"P6\n2 2\n255\n\x01\x02\x03\x04";
        assert!(matches!(read_pgm(&data[..]), Err(IoError::Format(_))));
    }

    #[test]
    fn pgm_rejects_16_bit() {
        let data = b"P5\n2 2\n65535\n";
        assert!(matches!(read_pgm(&data[..]), Err(IoError::Format(_))));
    }

    /// A payload read in growing chunks still fills the frame exactly,
    /// with no spare capacity, and a short one is an I/O error.
    #[test]
    fn payloads_past_the_first_chunk_read_exactly() {
        let res = Resolution::new(400, 300);
        assert!(res.pixels() > FIRST_PAYLOAD_CHUNK);
        let data: Vec<u8> = (0..res.pixels()).map(|i| (i * 7 % 251) as u8).collect();
        let f = Frame::from_vec(res, data).unwrap();
        let mut buf = Vec::new();
        write_pgm(&f, &mut buf).unwrap();
        let g = read_pgm(buf.as_slice()).unwrap();
        assert_eq!(f, g);
        assert_eq!(g.into_vec().capacity(), res.pixels());
        buf.pop();
        assert!(matches!(read_pgm(buf.as_slice()), Err(IoError::Io(_))));
    }

    #[test]
    fn y4m_truncated_chroma_fails() {
        let data = b"YUV4MPEG2 W2 H2 C420\nFRAME\n\x01\x02\x03\x04\x80";
        assert!(matches!(read_y4m(&data[..]), Err(IoError::Io(_))));
    }

    #[test]
    fn pgm_truncated_payload_fails() {
        let data = b"P5\n4 4\n255\n\x01\x02";
        assert!(matches!(read_pgm(&data[..]), Err(IoError::Io(_))));
    }

    #[test]
    fn y4m_round_trip() {
        let scene = SceneBuilder::new(Resolution::new(32, 24))
            .seed(4)
            .walkers(1)
            .build();
        let (seq, _) = scene.render_sequence(3);
        let mut buf = Vec::new();
        write_y4m(&seq, 30, &mut buf).unwrap();
        let back = read_y4m(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 3);
        for i in 0..3 {
            assert_eq!(back.frame(i), seq.frame(i));
        }
    }

    #[test]
    fn y4m_header_is_standard() {
        let scene = SceneBuilder::new(Resolution::new(16, 16)).build();
        let (seq, _) = scene.render_sequence(1);
        let mut buf = Vec::new();
        write_y4m(&seq, 60, &mut buf).unwrap();
        let header = String::from_utf8_lossy(&buf[..40]);
        assert!(header.starts_with("YUV4MPEG2 W16 H16 F60:1"), "{header}");
    }

    #[test]
    fn y4m_rejects_odd_dimensions() {
        let seq: FrameSequence<u8> = {
            let mut s = FrameSequence::new(Resolution::new(15, 16));
            s.push(Frame::new(Resolution::new(15, 16))).unwrap();
            s
        };
        let mut buf = Vec::new();
        assert!(matches!(
            write_y4m(&seq, 30, &mut buf),
            Err(IoError::Format(_))
        ));
    }

    #[test]
    fn y4m_rejects_empty_sequence() {
        let seq: FrameSequence<u8> = FrameSequence::new(Resolution::new(16, 16));
        let mut buf = Vec::new();
        assert!(matches!(
            write_y4m(&seq, 30, &mut buf),
            Err(IoError::Format(_))
        ));
    }

    #[test]
    fn y4m_rejects_unknown_colourspace() {
        let data = b"YUV4MPEG2 W2 H2 F30:1 C444\nFRAME\n\0\0\0\0";
        assert!(matches!(read_y4m(&data[..]), Err(IoError::Format(_))));
    }

    /// Headers that declare no pixels, an overflowing pixel count or
    /// more than the cap are format errors, found before any pixel
    /// buffer is allocated.
    #[test]
    fn hostile_headers_are_format_errors() {
        let pgm: [&[u8]; 5] = [
            b"P5\n4294967296 4294967296 255\n",
            b"P5\n0 5 255\n",
            b"P5\n5 0 255\n",
            b"P5\n8193 8192 255\n",
            b"P5\n184467440737095516150 1 255\n",
        ];
        for data in pgm {
            let err = read_pgm(data).expect_err("hostile PGM header accepted");
            assert!(matches!(err, IoError::Format(_)), "{err}");
        }
        let y4m: [&[u8]; 4] = [
            b"YUV4MPEG2 W4294967296 H4294967296 Cmono\nFRAME\n",
            b"YUV4MPEG2 W0 H5 C420\nFRAME\n",
            b"YUV4MPEG2 W16 H0 C420\n",
            b"YUV4MPEG2 W16384 H8192 Cmono\n",
        ];
        for data in y4m {
            let err = read_y4m(data).expect_err("hostile Y4M header accepted");
            assert!(matches!(err, IoError::Format(_)), "{err}");
        }
        // The cap itself is accepted: the header passes, and the missing
        // payload is an I/O error.
        let at_cap = b"P5\n8192 8192 255\n";
        assert!(matches!(read_pgm(&at_cap[..]), Err(IoError::Io(_))));
    }

    #[test]
    fn save_and_load_pgm_file() {
        let dir = std::env::temp_dir().join("mogpu_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frame.pgm");
        let f = test_frame();
        save_pgm(&f, &path).unwrap();
        let g = load_pgm(&path).unwrap();
        assert_eq!(f, g);
        std::fs::remove_dir_all(&dir).ok();
    }
}
