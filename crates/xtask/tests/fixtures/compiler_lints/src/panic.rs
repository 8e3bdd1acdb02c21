pub fn run(flag: u8) {
    match flag {
        0 => panic!("boom"),   //~ clippy::panic
        1 => todo!(),          //~ clippy::todo
        2 => unimplemented!(), //~ clippy::unimplemented
        #[expect(clippy::panic, reason = "unreachable by construction")]
        3 => panic!("boom"),
        _ => {}
    }
}
