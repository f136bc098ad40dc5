//! Checkpoint serialization for [`Params`].
//!
//! A tiny self-describing binary format (magic, version, matrix count,
//! then `rows cols data...` per matrix, little-endian `f32`). No external
//! serialization dependency — the format is fully under our control and
//! checked on load.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::matrix::Matrix;
use crate::tape::{ParamId, Params};

const MAGIC: &[u8; 8] = b"SNOWPMM1";

/// Saves every parameter matrix to `path`.
pub fn save_params(params: &Params, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(params.len() as u64).to_le_bytes())?;
    for i in 0..params.len() {
        let m = params.get(ParamId(i));
        w.write_all(&(m.rows() as u64).to_le_bytes())?;
        w.write_all(&(m.cols() as u64).to_le_bytes())?;
        for v in m.data() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Loads matrices saved by [`save_params`] into an existing store.
///
/// The store must already contain the same number of parameters with the
/// same shapes (i.e. build the model first, then load weights) — this
/// guards against loading a checkpoint into the wrong architecture.
///
/// All-or-nothing: every matrix is decoded before any is assigned, so a
/// truncated or mismatched checkpoint returns `Err` with `params`
/// untouched.
pub fn load_params(params: &mut Params, path: &Path) -> io::Result<()> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a Snowplow checkpoint",
        ));
    }
    let count = read_u64(&mut r)? as usize;
    if count != params.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint has {count} matrices, model has {}",
                params.len()
            ),
        ));
    }
    let mut loaded = Vec::with_capacity(count);
    for i in 0..count {
        let rows = read_u64(&mut r)? as usize;
        let cols = read_u64(&mut r)? as usize;
        let id = ParamId(i);
        if params.get(id).shape() != (rows, cols) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "matrix {i}: checkpoint shape {rows}x{cols} vs model {:?}",
                    params.get(id).shape()
                ),
            ));
        }
        let mut data = vec![0f32; rows * cols];
        let mut buf = [0u8; 4];
        for v in &mut data {
            r.read_exact(&mut buf)?;
            *v = f32::from_le_bytes(buf);
        }
        loaded.push(Matrix::from_vec(rows, cols, data));
    }
    for (i, m) in loaded.into_iter().enumerate() {
        *params.get_mut(ParamId(i)) = m;
    }
    Ok(())
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let dir = std::env::temp_dir().join("snowplow_mlcore_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");

        let mut params = Params::new();
        let a = params.add(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = params.add(Matrix::full(1, 3, -0.5));
        save_params(&params, &path).unwrap();

        let mut fresh = Params::new();
        let a2 = fresh.add(Matrix::zeros(2, 2));
        let b2 = fresh.add(Matrix::zeros(1, 3));
        load_params(&mut fresh, &path).unwrap();
        assert_eq!(fresh.get(a2), params.get(a));
        assert_eq!(fresh.get(b2), params.get(b));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let dir = std::env::temp_dir().join("snowplow_mlcore_io_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");

        let mut params = Params::new();
        params.add(Matrix::zeros(2, 2));
        save_params(&params, &path).unwrap();

        let mut wrong = Params::new();
        wrong.add(Matrix::zeros(3, 2));
        assert!(load_params(&mut wrong, &path).is_err());

        let mut too_many = Params::new();
        too_many.add(Matrix::zeros(2, 2));
        too_many.add(Matrix::zeros(1, 1));
        assert!(load_params(&mut too_many, &path).is_err());
    }

    #[test]
    fn truncated_checkpoint_leaves_params_untouched() {
        let dir = std::env::temp_dir().join("snowplow_mlcore_io_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");

        let mut saved = Params::new();
        saved.add(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        saved.add(Matrix::full(1, 3, -0.5));
        save_params(&saved, &path).unwrap();
        // Keep the magic, the count, and the whole first matrix (two u64
        // dims + four f32s); cut before the second matrix's header.
        let bytes = std::fs::read(&path).unwrap();
        let first_matrix_end = 8 + 8 + 16 + 4 * 4;
        std::fs::write(&path, &bytes[..first_matrix_end]).unwrap();

        let mut target = Params::new();
        target.add(Matrix::full(2, 2, 7.0));
        target.add(Matrix::full(1, 3, 9.0));
        let bits = |p: &Params| -> Vec<Vec<u32>> {
            (0..p.len())
                .map(|i| {
                    p.get(ParamId(i))
                        .data()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                })
                .collect()
        };
        let before = bits(&target);
        assert!(load_params(&mut target, &path).is_err());
        assert_eq!(bits(&target), before, "failed load modified the model");
    }
}
