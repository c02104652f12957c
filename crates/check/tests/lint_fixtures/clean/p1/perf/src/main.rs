//! The perf harness names `measured` and `square`.

fn main() {
    let _ = kern::measured() + u64::from(kern::square().sides);
}
