package soc

import (
	"fmt"

	"repro/internal/ff"
	"repro/internal/pasta"
)

// Default memory layout for the generated driver.
const (
	keyAddr   = 0x8000  // key elements, one 32-bit word each
	srcAddr   = 0x10000 // plaintext
	dstAddr   = 0x40000 // ciphertext
	statsAddr = 0x70000 // per-block cycle counts measured by rdcycle
)

// driverProgram generates the assembly a bare-metal driver runs to
// encrypt nBlocks blocks: load the key into the peripheral, program the
// nonce, then per block set counter/addresses/length, start, and poll the
// status register until done — the serialized block-by-block flow the
// paper describes for the single slave bus. With useIRQ the core instead
// enables the peripheral's completion interrupt and sleeps in WFI until
// the line wakes it (the resume-after-WFI idiom; interrupts stay globally
// masked), idling in a clock-gateable state for the whole accelerator
// runtime.
//
// firstCtr is the block counter of the first block; the loop programs
// CTR_LO = firstCtr + i for block i (the backend layer uses this to ask
// the SoC for an arbitrary keystream block). CTR_HI is fixed to the
// upper word of firstCtr: a run must not cross a 2^32-block counter
// boundary, which at t elements per block is far beyond the addressable
// RAM anyway.
func driverProgram(par pasta.Params, nBlocks int, lastLen int, nonce uint64, firstCtr uint64, useIRQ bool) string {
	t := par.T
	wait := fmt.Sprintf(`poll:
	lw   t0, %d(s0)         # STATUS
	andi t0, t0, %d
	bnez t0, poll           # spin while busy`, RegStatus, StatusBusy)
	irqSetup := ""
	if useIRQ {
		irqSetup = fmt.Sprintf(`	li   t0, 1
	sw   t0, %d(s0)         # IRQ_EN
	li   t0, 0x800
	csrw mie, t0            # MEIE: the line can wake WFI (mstatus.MIE stays 0)`, RegIRQEn)
		wait = fmt.Sprintf(`	wfi                     # sleep until the completion interrupt
	sw   zero, %d(s0)       # IRQ_ACK`, RegIRQAck)
	}
	return fmt.Sprintf(`
	# PASTA SoC driver: encrypt %[1]d blocks of up to %[2]d elements.
	li   s0, %[3]d          # peripheral base
%[25]s
	# --- one-time key load ---
	sw   zero, %[4]d(s0)    # KEY_RST
	li   t0, %[5]d          # key base in RAM
	li   t1, %[6]d          # 2t elements
keyload:
	lw   t2, 0(t0)
	sw   t2, %[7]d(s0)      # KEY_DATA
	addi t0, t0, 4
	addi t1, t1, -1
	bnez t1, keyload
	# --- nonce ---
	li   t0, %[8]d
	sw   t0, %[9]d(s0)      # NONCE_LO
	li   t0, %[10]d
	sw   t0, %[11]d(s0)     # NONCE_HI
	li   t0, %[27]d
	sw   t0, %[12]d(s0)     # CTR_HI
	# --- block loop ---
	li   s1, 0              # block index
	li   s2, %[1]d          # block count
	li   s3, %[13]d         # src pointer
	li   s4, %[14]d         # dst pointer
	li   t3, %[28]d         # first block counter
blockloop:
	add  t4, t3, s1
	sw   t4, %[15]d(s0)     # CTR_LO
	sw   s3, %[16]d(s0)     # SRC
	sw   s4, %[17]d(s0)     # DST
	li   t0, %[2]d
	addi t1, s1, 1
	blt  t1, s2, fulllen    # last block may be short
	li   t0, %[18]d
fulllen:
	sw   t0, %[19]d(s0)     # LEN
	rdcycle s5              # self-measure the block (Table II, RISC-V column)
	li   t0, 1
	sw   t0, %[20]d(s0)     # CTRL: start
%[26]s
	rdcycle s6
	sub  s6, s6, s5
	slli t0, s1, 2
	li   t1, %[24]d         # stats base
	add  t0, t0, t1
	sw   s6, 0(t0)
	addi s3, s3, %[23]d
	addi s4, s4, %[23]d
	addi s1, s1, 1
	blt  s1, s2, blockloop
	li   a0, 0
	ecall
`,
		nBlocks, t, PeriphBase,
		RegKeyRst, keyAddr, par.StateSize(), RegKeyData,
		uint32(nonce), RegNonceLo, uint32(nonce>>32), RegNonceHi, RegCtrHi,
		srcAddr, dstAddr,
		RegCtrLo, RegSrc, RegDst,
		lastLen, RegLen, RegCtrl, RegStatus, StatusBusy,
		4*t, statsAddr, irqSetup, wait,
		uint32(firstCtr>>32), uint32(firstCtr))
}

// RunStats summarizes an EncryptBlocks run.
type RunStats struct {
	CoreCycles   int64   // total RISC-V cycles including driver overhead
	AccelCycles  int64   // cycles spent inside the cryptoprocessor
	Instructions int64   // retired instructions
	Blocks       int64   // blocks encrypted
	Microseconds float64 // wall-clock at 100 MHz

	// SelfMeasured holds the per-block cycle counts the driver itself
	// recorded with rdcycle (start-to-done, including polling).
	SelfMeasured []int64

	// WaitCycles counts core cycles spent sleeping in WFI (clock-gated;
	// nonzero only for the interrupt-driven driver).
	WaitCycles int64
}

// CyclesPerBlock returns the average end-to-end cycles per block.
func (r RunStats) CyclesPerBlock() int64 {
	if r.Blocks == 0 {
		return 0
	}
	return r.CoreCycles / r.Blocks
}

// EncryptBlocks places key and message in RAM, runs the generated driver
// on the core, and returns the ciphertext read back from RAM with the
// co-simulated cycle statistics — the experiment behind the RISC-V
// column of Table II.
func EncryptBlocks(par pasta.Params, key pasta.Key, nonce uint64, msg ff.Vec) (ff.Vec, RunStats, error) {
	return encryptBlocks(par, key, nonce, 0, msg, false)
}

// EncryptBlocksFrom is EncryptBlocks with the block counter of the first
// block set to firstCtr instead of 0. The backend layer uses it to pull
// the keystream for an arbitrary block range out of the SoC (encrypting
// zeros: ct = 0 + KS), keeping the co-simulated substrate addressable
// with the same (nonce, block) interface as the other two.
func EncryptBlocksFrom(par pasta.Params, key pasta.Key, nonce, firstCtr uint64, msg ff.Vec) (ff.Vec, RunStats, error) {
	return encryptBlocks(par, key, nonce, firstCtr, msg, false)
}

// EncryptBlocksIRQ runs the interrupt-driven driver: the core sleeps in
// WFI while the peripheral works instead of spinning on the status
// register. Same ciphertext and end-to-end latency; the active (non-
// gated) core cycles drop to the driver overhead alone.
func EncryptBlocksIRQ(par pasta.Params, key pasta.Key, nonce uint64, msg ff.Vec) (ff.Vec, RunStats, error) {
	return encryptBlocks(par, key, nonce, 0, msg, true)
}

func encryptBlocks(par pasta.Params, key pasta.Key, nonce, firstCtr uint64, msg ff.Vec, useIRQ bool) (ff.Vec, RunStats, error) {
	if len(msg) == 0 {
		return nil, RunStats{}, fmt.Errorf("soc: empty message")
	}
	t := par.T
	nBlocks := (len(msg) + t - 1) / t
	lastLen := len(msg) - (nBlocks-1)*t

	if dstAddr+4*nBlocks*t > statsAddr {
		return nil, RunStats{}, fmt.Errorf("soc: %d blocks overflow the ciphertext region", nBlocks)
	}
	ramSize := statsAddr + 4*nBlocks + 4096
	s, err := New(par, ramSize)
	if err != nil {
		return nil, RunStats{}, err
	}
	for i, v := range key {
		if err := s.RAM.Write(keyAddr+uint32(4*i), uint32(v), 4); err != nil {
			return nil, RunStats{}, err
		}
	}
	for i, v := range msg {
		if err := s.RAM.Write(srcAddr+uint32(4*i), uint32(v), 4); err != nil {
			return nil, RunStats{}, err
		}
	}
	if err := s.LoadProgram(driverProgram(par, nBlocks, lastLen, nonce, firstCtr, useIRQ)); err != nil {
		return nil, RunStats{}, err
	}
	if err := s.Run(200_000_000); err != nil {
		return nil, RunStats{}, err
	}
	out := ff.NewVec(len(msg))
	for i := range out {
		w, err := s.RAM.Read(dstAddr+uint32(4*i), 4)
		if err != nil {
			return nil, RunStats{}, err
		}
		out[i] = uint64(w)
	}
	stats := RunStats{
		CoreCycles:   s.CPU.Cycle,
		AccelCycles:  s.Periph.AccelCycles,
		Instructions: s.CPU.Insns,
		Blocks:       s.Periph.BlocksDone,
		Microseconds: s.Microseconds(),
		WaitCycles:   s.CPU.WaitCycles,
	}
	for b := 0; b < nBlocks; b++ {
		w, err := s.RAM.Read(statsAddr+uint32(4*b), 4)
		if err != nil {
			return nil, RunStats{}, err
		}
		stats.SelfMeasured = append(stats.SelfMeasured, int64(w))
	}
	return out, stats, nil
}
