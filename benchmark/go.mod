module prioplus/benchmark

go 1.22

require prioplus v0.0.0

replace prioplus => ../
