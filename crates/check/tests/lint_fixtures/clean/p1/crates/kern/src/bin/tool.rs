//! A bin is a crate of its own: it names `for_the_bin` from outside.

fn main() {
    println!("{}", kern::for_the_bin());
}
