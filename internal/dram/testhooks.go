package dram

// Fault-injection hook for the mutation test that proves the quiet-time
// audit has teeth (memctrl/testhooks.go holds the controller's). It
// exists only for tests; nothing in the simulator calls it.

// InjectQuietInflate makes the channel overstate, by one burst, the next
// quiet time a fruitless queue scan records. The scheduler then skips a
// scan that could have issued, which the audit's replay must report with
// the channel, the cycle and the recorded time.
func (c *Channel) InjectQuietInflate() { c.inflateQuiet = true }
