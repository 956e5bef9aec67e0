select count(*), sum(x), max(y) from [select * from s] as p where p.y < 2.0 window range 4 milliseconds slide 2 milliseconds
