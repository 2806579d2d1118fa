//! The assembler's name resolution, pinned from the outside: built-ins
//! in any case, registered symbols that shadow them, indexed scratch,
//! hex addresses, the exact error texts and the exact disassembly.

use tpp_isa::{
    assemble, disassemble, Assembler, Instruction, Program, Stat, SymbolTable, VirtAddr,
};

/// `text` with every other ASCII letter flipped to the other case.
fn mixed_case(text: &str) -> String {
    text.chars()
        .enumerate()
        .map(|(i, c)| {
            if i % 2 == 0 {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

#[test]
fn built_ins_resolve_in_any_case() {
    let table = SymbolTable::new();
    for &stat in Stat::ALL {
        let symbol = stat.symbol();
        for text in [
            symbol.to_string(),
            symbol.to_ascii_lowercase(),
            symbol.to_ascii_uppercase(),
            mixed_case(symbol),
        ] {
            assert_eq!(table.resolve(&text), Ok(stat.addr()), "{text}");
        }
    }
    let program =
        assemble("pUsH [QUEUE:queuesize]\nLoAd [switch:SWITCHID], [pAcKeT:hOp[2]]").unwrap();
    assert_eq!(
        program.instructions(),
        &[
            Instruction::Push {
                addr: Stat::QueueSize.addr()
            },
            Instruction::Load {
                addr: Stat::SwitchId.addr(),
                dst: tpp_isa::PacketOperand::Hop(2)
            },
        ]
    );
}

#[test]
fn registered_symbol_shadows_its_built_in() {
    let mut table = SymbolTable::new();
    // The first registration of a built-in name reports the built-in.
    assert_eq!(
        table.register("queue:QUEUESIZE", VirtAddr(0x4010)),
        Some(Stat::QueueSize.addr())
    );
    assert_eq!(
        table.register("Queue:QueueSize", VirtAddr(0x4014)),
        Some(VirtAddr(0x4010))
    );
    assert_eq!(table.register("Aaa:First", VirtAddr(0x2004)), None);
    assert_eq!(table.register("zzz:last", VirtAddr(0x2008)), None);
    assert_eq!(table.resolve("QUEUE:QUEUESIZE"), Ok(VirtAddr(0x4014)));
    assert_eq!(table.resolve("aaa:FIRST"), Ok(VirtAddr(0x2004)));
    // Reverse lookups: the shadowed built-in's address has no name, and
    // of several names the alphabetically first wins, all lowercase.
    assert_eq!(table.symbol_for(VirtAddr(0x2000)), None);
    assert_eq!(table.symbol_for(VirtAddr(0x4014)), Some("queue:queuesize"));
    assert_eq!(table.symbol_for(VirtAddr(0x2004)), Some("aaa:first"));
    assert_eq!(
        table.symbol_for(VirtAddr(0x2008)),
        Some("queue:bytesdropped")
    );
    assert_eq!(table.symbol_for(VirtAddr(0x5000)), None);
    assert_eq!(
        SymbolTable::new().symbol_for(Stat::RxUtilization.addr()),
        Some("link:rx-utilization")
    );
}

#[test]
fn indexed_scratch_and_hex_addresses() {
    let table = SymbolTable::new();
    for (text, addr) in [
        ("Link:Scratch[0]", 0x4000),
        ("LINK:SCRATCH[5]", 0x4014),
        ("link:scratch[1023]", 0x4ffc),
        ("Switch:Scratch[2]", 0x8008),
        ("sWiTcH:sCrAtCh[8191]", 0xfffc),
        ("Switch:Scratch[+3]", 0x800c),
        ("0x2000", 0x2000),
        ("0X2000", 0x2000),
        ("0xFFff", 0xffff),
        ("0x0", 0),
    ] {
        assert_eq!(table.resolve(text), Ok(VirtAddr(addr)), "{text}");
    }
    for text in [
        "Link:Scratch[1024]",
        "Switch:Scratch[8192]",
        "Switch:Scratch[-1]",
        "Switch:Scratch[ 3]",
        "Link:Scratch[3",
        "0x10000",
        "0x",
        "x2000",
    ] {
        assert!(table.resolve(text).is_err(), "{text}");
    }
}

#[test]
fn error_texts_are_unchanged() {
    for (source, text) in [
        ("FROB [X]", "parse error on line 1: unknown mnemonic 'FROB'"),
        ("frob", "parse error on line 1: unknown mnemonic 'FROB'"),
        (
            "PuShX [Queue:QueueSize]",
            "parse error on line 1: unknown mnemonic 'PUSHX'",
        ),
        (
            "PUSH",
            "parse error on line 1: PUSH expects 1 operand(s), got 0",
        ),
        (
            "push [Queue:QueueSize], [Packet:0], [Packet:1]",
            "parse error on line 1: PUSH expects 1 operand(s), got 3",
        ),
        (
            "LOAD [Switch:SwitchID]",
            "parse error on line 1: LOAD expects 2 operand(s), got 1",
        ),
        (
            "PUSH Queue:QueueSize",
            "parse error on line 1: expected bracketed operand, got 'Queue:QueueSize'",
        ),
        ("PUSH [No:Such-Stat]", "unknown symbol [No:Such-Stat]"),
        ("PUSH [nO:sUcH]", "unknown symbol [nO:sUcH]"),
        (
            "LOAD [Switch:SwitchID], [NotPacket:0]",
            "parse error on line 1: packet operand must start with Packet:, got 'NotPacket:0'",
        ),
        (
            "LOAD [Switch:SwitchID], Packet:0",
            "parse error on line 1: expected bracketed packet operand, got 'Packet:0'",
        ),
        (
            "LOAD [Switch:SwitchID], [Packet:Hop[X1]]",
            "parse error on line 1: bad hop index 'x1'",
        ),
        (
            "LOAD [Switch:SwitchID], [PACKET:HOP[ZZ]]",
            "parse error on line 1: bad hop index 'zz'",
        ),
        (
            "LOAD [Switch:SwitchID], [Packet:QQ]",
            "parse error on line 1: bad packet word offset 'qq'",
        ),
        (
            "LOAD [Switch:SwitchID], [PacketMemory:Hop[600]]",
            "packet word offset 600 exceeds encodable range",
        ),
        (
            "LOAD [Switch:SwitchID], [Packet:0x200]",
            "packet word offset 512 exceeds encodable range",
        ),
        (
            "PUSHI 70000",
            "parse error on line 1: immediate 70000 exceeds 16 bits",
        ),
        ("PUSHI abc", "parse error on line 1: bad immediate 'abc'"),
        (
            "pushi",
            "parse error on line 1: PUSHI expects 1 operand(s), got 0",
        ),
        (
            "add 1",
            "parse error on line 1: ADD expects 0 operand(s), got 1",
        ),
        (
            "PUSH [Link:Scratch[1024]]",
            "unknown symbol [Link:Scratch[1024]]",
        ),
        ("PUSH [0x10000]", "unknown symbol [0x10000]"),
        (
            "nop\n\nCSTORE [Switch:Scratch[1]]",
            "parse error on line 3: CSTORE expects 2 operand(s), got 1",
        ),
    ] {
        let err = assemble(source).expect_err(source);
        assert_eq!(err.to_string(), text, "{source}");
    }
}

#[test]
fn disassembly_is_unchanged() {
    for &stat in Stat::ALL {
        let program = Program::new(vec![Instruction::Push { addr: stat.addr() }]);
        let expected = format!("PUSH [{}]", stat.symbol().to_ascii_lowercase());
        assert_eq!(disassemble(&program), expected);
    }
    let mut table = SymbolTable::new();
    table.register("queue:QUEUESIZE", VirtAddr(0x4010));
    table.register("Queue:QueueSize", VirtAddr(0x4014));
    table.register("Aaa:First", VirtAddr(0x2004));
    table.register("zzz:last", VirtAddr(0x2008));
    let asm = Assembler::with_symbols(table);
    let program = asm
        .assemble(
            "PUSH [Queue:QueueSize]\nPUSH [0x2000]\nLOAD [0x2004], [Packet:Hop[3]]\n\
             STORE [Link:Scratch[2]], [PacketMemory:SP]\nCEXEC [Switch:Scratch[9]], [packet:7]\n\
             PUSH [0x2008]\nPUSH [0x5000]\nPUSHI 0xff\nOR",
        )
        .unwrap();
    assert_eq!(
        asm.disassemble(&program),
        "PUSH [queue:queuesize]\nPUSH [0x2000]\nLOAD [aaa:first], [Packet:Hop[3]]\n\
         STORE [0x4008], [Packet:SP]\nCEXEC [0x8024], [Packet:7]\n\
         PUSH [queue:bytesdropped]\nPUSH [0x5000]\nPUSHI 255\nOR"
    );
}
